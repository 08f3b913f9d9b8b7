//go:build !purego

package hashing

import "github.com/vossketch/vos/internal/cpu"

// useAVX512 selects hashRangeAVX512; tests turn it off to run the Go loop alone.
var useAVX512 = cpu.AVX512

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
	if !useAVX512 || blocks == 0 || n == 0 || n&(n-1) != 0 && n>>32 != 0 {
		return 0
	}
	hashRangeAVX512(dst[:blocks], seeds[:blocks], key, n)
	return blocks
}
