//go:build !purego

package hashing

import "github.com/vossketch/vos/internal/cpu"

// hashRangeAVX512 sets dst[j] = Reduce(Hash64(key, seeds[j]), n) eight at a
// time, len(dst) a positive multiple of eight, mul[j] the family's
// seeds[j]·0x9e3779b97f4a7c15. It reduces by a shift when n is a power of
// two, else from two 32-bit products: exact for n < 2³² only.
//
//go:noescape
func hashRangeAVX512(dst, seeds, mul []uint64, key, n uint64)

// hashRangeVec fills the longest prefix of dst a multiple of eight long and
// returns its length: 0 without AVX-512, or for n ≥ 2³² not a power of two.
func hashRangeVec(dst, seeds, mul []uint64, key, n uint64) int {
	blocks := len(dst) &^ 7
	if !reducesVec(n) || blocks == 0 {
		return 0
	}
	hashRangeAVX512(dst[:blocks], seeds[:blocks], mul[:blocks], key, n)
	return blocks
}

// reducesVec reports whether the classic family's bodies run for n: with
// AVX-512, and for an n they reduce exactly (a power of two, or below 2³²).
func reducesVec(n uint64) bool {
	return cpu.AVX512 && n != 0 && (n&(n-1) == 0 || n>>32 == 0)
}

// gatherXorAVX512 is hashRangeAVX512 and a bitset gather in one pass: for
// each of len(ows) blocks b, bit s of word w is bit p of words, p =
// Reduce(Hash64(key, seeds[64b+s]), n); w goes to dst[b] unless dst is nil,
// and ones sums popcount(w ^ ows[b]). len(ows) is positive, seeds and mul
// hold 64 members a block, words at least n bits.
//
//go:noescape
func gatherXorAVX512(dst, ows, seeds, mul, words []uint64, key, n uint64) (ones uint64)

// gatherXorVec runs gatherXorAVX512 over every whole 64-member block of
// seeds where hashRangeVec would fill, and returns how many it did.
func gatherXorVec(dst, ows, seeds, mul, words []uint64, key, n uint64) (int, uint64) {
	blocks := len(seeds) / 64
	if !reducesVec(n) || blocks == 0 {
		return 0, 0
	}
	_ = words[(n-1)>>6] // the word of the last position Reduce can give
	if dst != nil {
		dst = dst[:blocks]
	}
	return blocks, gatherXorAVX512(dst, ows[:blocks], seeds, mul, words, key, n)
}

// edgePositionsAVX512 sets dst[i] to pair i's position (Family.EdgePositions)
// eight pairs at a time, len(dst) a positive multiple of eight: under the
// classic family's seeds, or the fast family's userSeed when seeds is empty.
//
//go:noescape
func edgePositionsAVX512(dst, pairs []uint64, stride int, seeds []uint64, psiSeed, k, userSeed, m uint64)

// edgePositionsVec fills the longest prefix of dst a multiple of eight long
// and returns its length: 0 without AVX-512, for k ≥ 2³², or for an m the
// family does not reduce exactly (classic: 2^b or < 2³²; fast: ≤ 2³²).
func edgePositionsVec(dst, pairs []uint64, stride int, seeds []uint64, k, psiSeed, userSeed, m uint64) int {
	blocks := len(dst) &^ 7
	if !cpu.AVX512 || blocks == 0 || k>>32 != 0 || m == 0 || m&(m-1) != 0 && m>>32 != 0 || len(seeds) == 0 && m > 1<<32 {
		return 0
	}
	_ = pairs[(blocks-1)*stride+1] // the last item the kernel reads
	edgePositionsAVX512(dst[:blocks], pairs, stride, seeds, psiSeed, k, userSeed, m)
	return blocks
}

// usersToRangeAVX512 is UsersToRange's body: len(dst) a positive multiple of eight, n < 2³².
//
//go:noescape
func usersToRangeAVX512(dst []uint32, pairs []uint64, stride int, seed, n uint64)

// UsersToRange sets dst[i] = HashToRange(pairs[i*stride], seed, n) over the
// longest prefix of dst a multiple of eight long and returns its length: 0
// without AVX-512 or for n ≥ 2³².
func UsersToRange(dst []uint32, pairs []uint64, stride int, seed, n uint64) int {
	blocks := len(dst) &^ 7
	if !cpu.AVX512 || blocks == 0 || n>>32 != 0 {
		return 0
	}
	usersToRangeAVX512(dst[:blocks], pairs[:(blocks-1)*stride+1], stride, seed, n) // up to the last user read
	return blocks
}
