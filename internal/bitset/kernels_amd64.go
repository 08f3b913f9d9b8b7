//go:build !purego

package bitset

import "github.com/vossketch/vos/internal/cpu"

// gatherXorAVX512 gathers idx's whole 64-index blocks up to the first that
// holds an index ≥ n: block b's word w goes to dst[b] unless dst is nil, and
// ones sums popcount(w ^ ows[b]).
//
//go:noescape
func gatherXorAVX512(dst, ows, src []uint64, n uint64, idx []uint64) (blocks int, ones uint64)

// gatherVec runs gatherXorAVX512 where the CPU has it. dst is nil, or ows
// zeroed, against which the plain gather counts.
func gatherVec(dst, ows, src []uint64, n uint64, idx []uint64) (int, uint64) {
	if !cpu.AVX512 {
		return 0, 0
	}
	return gatherXorAVX512(dst, ows[:len(idx)/64], src, n, idx)
}

// xorCountAVX512 counts the differing bits of a's and b's first
// len(a) &^ 7 words, eight words a step; b is at least as long as a.
//
//go:noescape
func xorCountAVX512(a, b []uint64) (words int, ones uint64)

// xorCountVec runs xorCountAVX512 where the CPU has the vector popcount.
func xorCountVec(a, b []uint64) (int, uint64) {
	if !cpu.AVX512VPOPCNTDQ {
		return 0, 0
	}
	return xorCountAVX512(a, b[:len(a)])
}
