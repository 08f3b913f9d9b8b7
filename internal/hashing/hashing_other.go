//go:build !amd64 || purego

package hashing

var useAVX512 = false

func hashRangeVec(dst, seeds []uint64, key, n uint64) int { return 0 }
