//go:build purego || (!amd64 && !arm64)

package bitset

// Portable dispatch: the reference kernels back the public methods, either
// because the purego tag asked for them or because the target is not one
// the blocked shapes are tuned for.

func gatherWords(dstW, src []uint64, n uint64, idx []uint64) uint64 {
	return gatherWordsRef(dstW, src, n, idx)
}

func gatherXorCountWords(src []uint64, n uint64, idx []uint64, ows []uint64) uint64 {
	return gatherXorCountRef(src, n, idx, ows)
}

func xorCountWordsKernel(a, b []uint64) uint64 {
	return xorCountWordsRef(a, b)
}
