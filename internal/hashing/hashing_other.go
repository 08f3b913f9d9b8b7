//go:build !amd64 || purego

package hashing

func hashRangeVec(dst, seeds, mul []uint64, key, n uint64) int { return 0 }

func gatherXorVec(dst, ows, seeds, mul, words []uint64, key, n uint64) (int, uint64) { return 0, 0 }

func edgePositionsVec(dst, pairs []uint64, stride int, seeds []uint64, k, psiSeed, userSeed, m uint64) int {
	return 0
}

func UsersToRange(dst []uint32, pairs []uint64, stride int, seed, n uint64) int { return 0 }
