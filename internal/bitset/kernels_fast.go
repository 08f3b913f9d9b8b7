//go:build (amd64 || arm64) && !purego

package bitset

// On 64-bit targets the public methods dispatch to the blocked kernels
// (with their AVX-512 body where the CPU has one); build with -tags purego
// to force the portable reference everywhere.
// The word-vs-word XOR-popcount is the same on both builds: its scalar
// loop is already throughput-bound (see xorCountWordsRef).

func gatherWords(dstW, src []uint64, n uint64, idx []uint64) uint64 {
	return gatherWordsBlocked(dstW, src, n, idx)
}

func gatherXorCountWords(src []uint64, n uint64, idx []uint64, ows []uint64) uint64 {
	return gatherXorCountBlocked(src, n, idx, ows)
}

func xorCountWordsKernel(a, b []uint64) uint64 {
	return xorCountWordsRef(a, b)
}
