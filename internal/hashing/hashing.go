// Package hashing provides the deterministic, seeded hash primitives that
// every sketch in this repository is built on: 64-bit mixers, families of k
// independent hash functions, and 2-universal hashing over a prime field.
//
// Everything here is pure computation: no global state, no math/rand
// dependence at query time, and identical results across runs and
// architectures for a given seed. Sketch reproducibility — the ability to
// rebuild a sketch from the same stream and get bit-identical state — depends
// on these properties.
package hashing

import "math/bits"

// SplitMix64 advances a splitmix64 state and returns the next output.
// It is the canonical generator used to derive independent sub-seeds from a
// single user-provided seed (Steele et al., "Fast Splittable Pseudorandom
// Number Generators", OOPSLA'14).
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 is a stateless bijective finalizer (the splitmix64 output stage).
// Because it is a bijection on 64-bit values it never introduces collisions
// on its own; all collision behaviour comes from range reduction.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash64 hashes a 64-bit key under a 64-bit seed. The construction XORs the
// seed into the key, applies two rounds of mixing with distinct odd
// multipliers, and folds the seed back in between rounds so that different
// seeds yield (empirically) independent functions.
func Hash64(key, seed uint64) uint64 {
	x := key ^ (seed * 0x9e3779b97f4a7c15)
	x = (x ^ (x >> 33)) * 0xff51afd7ed558ccd
	x ^= seed
	x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// HashString hashes an arbitrary byte string under a seed using a 64-bit
// FNV-1a core followed by the Mix64 finalizer. It is used to map external
// identifiers (user names, item URLs, shingles) into the uint64 key space of
// the sketches.
func HashString(s string, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return Hash64(h, seed)
}

// Reduce maps a 64-bit hash onto [0, n) without modulo bias using the
// high bits of the 128-bit product (Lemire's multiply-shift reduction).
// n must be > 0.
func Reduce(h uint64, n uint64) uint64 {
	hi, _ := bits.Mul64(h, n)
	return hi
}

// HashToRange hashes key under seed directly into [0, n).
func HashToRange(key, seed, n uint64) uint64 {
	return Reduce(Hash64(key, seed), n)
}

// Float01 converts a hash to a float64 uniformly distributed in [0, 1).
// Only the top 53 bits participate, so the result is exactly representable.
func Float01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// Family is a family of k pseudo-independent hash functions derived from one
// seed. Member j is the function x -> Hash64(x, seeds[j]).
//
// Sketches that conceptually need "k independent hash functions h_1 … h_k"
// (MinHash registers, the f_1 … f_k user hashes of VOS) use a Family.
type Family struct {
	seeds []uint64
	// mul[j] = seeds[j]·0x9e3779b97f4a7c15, the product Hash64 takes first,
	// which does not depend on the key: the vector fill loads it.
	mul []uint64
}

// NewFamily derives a family of k hash functions from seed.
func NewFamily(k int, seed uint64) *Family {
	if k <= 0 {
		panic("hashing: family size must be positive")
	}
	state := seed
	seeds, mul := make([]uint64, k), make([]uint64, k)
	for i := range seeds {
		seeds[i] = SplitMix64(&state)
		mul[i] = seeds[i] * 0x9e3779b97f4a7c15
	}
	return &Family{seeds: seeds, mul: mul}
}

// Hash applies member j of the family to key. j must be in [0, k).
func (f *Family) Hash(j int, key uint64) uint64 {
	return Hash64(key, f.seeds[j])
}

// HashRange applies member j and reduces the result onto [0, n).
func (f *Family) HashRange(j int, key, n uint64) uint64 {
	return Reduce(Hash64(key, f.seeds[j]), n)
}

// HashRangeInto evaluates members 0..len(dst)-1 on key, reduced onto
// [0, n), writing member j's value to dst[j]. It is the batched form of
// HashRange for callers that need a user's whole position vector (sketch
// recovery, position-table fills): the seeds slice is walked inline with
// the Lemire reduction fused in, so the loop carries no per-member method
// call or repeated bounds check. dst must not be longer than k.
//
// dst[j] == f.HashRange(j, key, n) for every j, exactly.
func (f *Family) HashRangeInto(dst []uint64, key, n uint64) {
	// With AVX-512, hashing_amd64.s fills eight members a step; the rest is
	// this loop, where Hash64 and Reduce inline: HashRange by construction.
	seeds := f.seeds[:len(dst)]
	for j := hashRangeVec(dst, seeds, f.mul, key, n); j < len(seeds); j++ {
		dst[j] = Reduce(Hash64(key, seeds[j]), n)
	}
}

// EdgePositions sets dst[i] = f.HashRange(int(HashToRange(item, psiSeed,
// k)), user, m) for pair i, user pairs[i*stride] and item pairs[i*stride+1],
// eight pairs a step where the CPU has AVX-512 (hashing_amd64.s). It returns
// how many it set: the longest prefix a multiple of eight long, or 0 without
// the vector body or for m ≥ 2³² not a power of two. The rest is the caller's.
func (f *Family) EdgePositions(dst, pairs []uint64, stride int, psiSeed, m uint64) int {
	return edgePositionsVec(dst, pairs, stride, f.seeds, uint64(len(f.seeds)), psiSeed, 0, m)
}

// MersennePrime61 is 2^61 - 1, the modulus of the 2-universal family below.
const MersennePrime61 = (1 << 61) - 1

// TwoUniversal is a 2-universal hash function h(x) = ((a*x + b) mod p) over
// the Mersenne prime field p = 2^61 - 1, as used by the optimal-densification
// variant of OPH (Shrivastava, ICML'17) and available to any component that
// needs provable pairwise independence rather than empirical mixing quality.
type TwoUniversal struct {
	a, b uint64
}

// NewTwoUniversal draws (a, b) from the seed with a ∈ [1, p) and b ∈ [0, p).
func NewTwoUniversal(seed uint64) TwoUniversal {
	state := seed
	a := SplitMix64(&state)%(MersennePrime61-1) + 1
	b := SplitMix64(&state) % MersennePrime61
	return TwoUniversal{a: a, b: b}
}

// Hash evaluates the function at x. The input is first folded into the field.
func (t TwoUniversal) Hash(x uint64) uint64 {
	x = mod61(x)
	return mod61Add(mulMod61(t.a, x), t.b)
}

// HashRange evaluates the function and reduces onto [0, n).
func (t TwoUniversal) HashRange(x, n uint64) uint64 {
	// Scale the field element onto the range; the field has 61 bits so
	// shift up to use the full 64-bit reduction.
	return Reduce(t.Hash(x)<<3, n)
}

// mod61 reduces x modulo 2^61-1 using the Mersenne identity
// x mod (2^61-1) = (x >> 61) + (x & (2^61-1)), iterated.
func mod61(x uint64) uint64 {
	x = (x >> 61) + (x & MersennePrime61)
	if x >= MersennePrime61 {
		x -= MersennePrime61
	}
	return x
}

// mod61Add adds two field elements.
func mod61Add(a, b uint64) uint64 {
	s := a + b // cannot overflow: both < 2^61
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// mulMod61 multiplies two field elements using a 128-bit intermediate.
// With a, b < 2^61 the product is hi*2^64 + lo where hi < 2^58, and since
// 2^64 ≡ 2^3 (mod 2^61-1) the product reduces to 8*hi + (lo>>61) + (lo&p).
func mulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	r := (hi << 3) + (lo >> 61) + (lo & MersennePrime61)
	return mod61(r)
}
