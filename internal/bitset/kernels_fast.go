//go:build (amd64 || arm64) && !purego

package bitset

// On 64-bit targets the public methods dispatch to the blocked kernels
// (with their AVX-512 body where the CPU has one); build with -tags purego
// to force the portable reference everywhere.
// The word-against-word XOR-popcount has no blocked Go form (see
// xorCountWordsRef): where the CPU has AVX512_VPOPCNTDQ a vector body takes
// eight words a step and the Go loop the last len mod 8.

func gatherWords(dstW, src []uint64, n uint64, idx []uint64) uint64 {
	return gatherWordsBlocked(dstW, src, n, idx)
}

func gatherXorCountWords(src []uint64, n uint64, idx []uint64, ows []uint64) uint64 {
	return gatherXorCountBlocked(src, n, idx, ows)
}

func xorCountWordsKernel(a, b []uint64) uint64 {
	words, ones := xorCountVec(a, b)
	return ones + xorCountWordsRef(a[words:], b[words:])
}
