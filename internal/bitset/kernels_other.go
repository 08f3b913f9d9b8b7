//go:build !amd64 || purego

package bitset

func gatherVec(dst, ows, src []uint64, n uint64, idx []uint64) (int, uint64) { return 0, 0 }

func xorCountVec(a, b []uint64) (int, uint64) { return 0, 0 }
