//go:build !purego

package hashing

import "github.com/vossketch/vos/internal/cpu"

// hashRangeAVX512 sets dst[j] = Reduce(Hash64(key, seeds[j]), n) eight at a
// time, len(dst) a positive multiple of eight. It reduces by a shift when n
// is a power of two, else from two 32-bit products: exact for n < 2³² only.
//
//go:noescape
func hashRangeAVX512(dst, seeds []uint64, key, n uint64)

// hashRangeVec fills the longest prefix of dst a multiple of eight long and
// returns its length: 0 without AVX-512, or for n ≥ 2³² not a power of two.
func hashRangeVec(dst, seeds []uint64, key, n uint64) int {
	blocks := len(dst) &^ 7
	if !cpu.AVX512 || blocks == 0 || n == 0 || n&(n-1) != 0 && n>>32 != 0 {
		return 0
	}
	hashRangeAVX512(dst[:blocks], seeds[:blocks], key, n)
	return blocks
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
