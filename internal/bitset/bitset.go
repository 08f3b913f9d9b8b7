// Package bitset implements a fixed-length bit array with O(1) maintained
// popcount, the storage substrate for both the shared array A of VOS and the
// packed recovered sketches of its users.
//
// The VOS update rule needs two operations to be constant time: flipping one
// bit, and reading the global fraction of 1-bits (the paper's β counter).
// Bitset keeps a running ones count updated on every mutation so both are
// O(1); the paper's separate β bookkeeping becomes a single division.
package bitset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Bitset is a fixed-length array of bits with a maintained count of 1-bits.
// The zero value is unusable; construct with New. Bitset is not safe for
// concurrent mutation.
type Bitset struct {
	words []uint64
	n     uint64 // number of valid bits
	ones  uint64 // maintained popcount
}

// New creates a Bitset of n zero bits. n must be >= 1.
func New(n uint64) *Bitset {
	if n == 0 {
		panic("bitset: length must be positive")
	}
	return &Bitset{
		words: make([]uint64, (n+63)/64),
		n:     n,
	}
}

// Len returns the number of bits.
func (b *Bitset) Len() uint64 { return b.n }

// Count returns the number of 1-bits, in O(1).
func (b *Bitset) Count() uint64 { return b.ones }

// OnesFraction returns Count()/Len(), the paper's β when the Bitset is the
// shared array A.
func (b *Bitset) OnesFraction() float64 {
	return float64(b.ones) / float64(b.n)
}

// Get returns bit i.
func (b *Bitset) Get(i uint64) bool {
	b.check(i)
	return b.words[i>>6]&(1<<(i&63)) != 0
}

// GetBit returns bit i as 0 or 1, convenient for XOR arithmetic.
func (b *Bitset) GetBit(i uint64) uint64 {
	b.check(i)
	return (b.words[i>>6] >> (i & 63)) & 1
}

// Set sets bit i to 1.
func (b *Bitset) Set(i uint64) {
	b.check(i)
	w, m := i>>6, uint64(1)<<(i&63)
	if b.words[w]&m == 0 {
		b.words[w] |= m
		b.ones++
	}
}

// Flip toggles bit i and returns its new value. This is the O(1) XOR update
// at the heart of VOS.
func (b *Bitset) Flip(i uint64) bool {
	b.check(i)
	w, m := i>>6, uint64(1)<<(i&63)
	b.words[w] ^= m
	if b.words[w]&m != 0 {
		b.ones++
		return true
	}
	b.ones--
	return false
}

// FlipAll toggles the bits at idx in order — the same final words and ones
// count as calling Flip for each, so an index listed twice cancels — as one
// tight loop with nothing between two toggles: the words are scattered over
// an array far larger than the cache, and back to back their misses overlap
// where a loop that does other work per toggle waits out each one. An
// out-of-range index panics as Flip does, with exactly the indices before it
// toggled.
func (b *Bitset) FlipAll(idx []uint64) {
	ones := b.ones
	for _, i := range idx {
		if i >= b.n {
			b.ones = ones
			b.check(i)
		}
		w := &b.words[i>>6]
		ones += 1 - 2*(*w>>(i&63)&1) // +1 when the bit was 0, −1 (wrapping) when it was 1
		*w ^= 1 << (i & 63)
	}
	b.ones = ones
}

// Reset zeroes every bit.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.ones = 0
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitset{words: w, n: b.n, ones: b.ones}
}

// Equal reports whether two bitsets have identical length and contents.
func (b *Bitset) Equal(o *Bitset) bool {
	if b.n != o.n {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Xor replaces b with b XOR o. Both bitsets must have the same length.
// Odd sketches combine by XOR: odd(S₁) ⊕ odd(S₂) = odd(S₁ Δ S₂).
func (b *Bitset) Xor(o *Bitset) {
	if b.n != o.n {
		panic("bitset: length mismatch in Xor")
	}
	ones := uint64(0)
	for i := range b.words {
		b.words[i] ^= o.words[i]
		ones += uint64(bits.OnesCount64(b.words[i]))
	}
	b.ones = ones
}

// Slide is a sliding window's rotation over its three arrays in one pass:
// merged and base both become merged ⊕ retired (the retired bucket XOR-ed
// out), and retired becomes merged ⊕ base, the bucket that closes. Each
// keeps its ones count. All three must have the same length.
func Slide(merged, base, retired *Bitset) {
	if merged.n != base.n || merged.n != retired.n {
		panic("bitset: length mismatch in Slide")
	}
	mw := merged.words
	bw, rw := base.words[:len(mw)], retired.words[:len(mw)]
	var mOnes, rOnes uint64
	for i, m := range mw {
		x, y := m^rw[i], m^bw[i]
		mw[i], bw[i], rw[i] = x, x, y
		mOnes += uint64(bits.OnesCount64(x))
		rOnes += uint64(bits.OnesCount64(y))
	}
	merged.ones, base.ones, retired.ones = mOnes, mOnes, rOnes
}

// XorCount returns the number of positions where b and o differ (the
// popcount of b XOR o) without materialising the XOR. Both bitsets must have
// the same length.
func (b *Bitset) XorCount(o *Bitset) uint64 {
	if b.n != o.n {
		panic("bitset: length mismatch in XorCount")
	}
	return b.XorCountWords(o.words)
}

// XorCountWords is XorCount against a raw packed word slice, as returned
// by UnsafeWords — the pure word-level pair comparison between two cached
// recovered sketches. len(ws) must equal the word count of b, and any tail
// bits past b.Len() must be zero (UnsafeWords output always satisfies
// both).
func (b *Bitset) XorCountWords(ws []uint64) uint64 {
	if len(ws) != len(b.words) {
		panic("bitset: word-count mismatch in XorCountWords")
	}
	return xorCountWords(b.words, ws)
}

// UnsafeWords exposes the backing word slice, least-significant bit first,
// tail bits zero, WITHOUT copying — "Unsafe" because the slice aliases the
// bitset's storage and mutating it would silently corrupt the bitset
// (ones count included) and every cache entry sharing it. Callers must
// treat the result as read-only. It exists so packed recovered sketches
// can be cached as plain []uint64 values and compared later with
// XorCountWords.
func (b *Bitset) UnsafeWords() []uint64 { return b.words }

// FromWordsCountedUnsafe wraps an UnsafeWords-style slice as an n-bit
// Bitset WITHOUT copying: the bitset and the slice share storage, so
// neither may be mutated afterwards (read-only views over cached packed
// sketches). The slice must hold exactly (n+63)/64 words with zero tail
// bits, as UnsafeWords produces, and ones must equal its popcount — the
// caller recorded Count when the words were first materialised, so a cache
// hit skips the recount.
func FromWordsCountedUnsafe(ws []uint64, n, ones uint64) *Bitset {
	if n == 0 || len(ws) != int((n+63)/64) {
		panic(fmt.Sprintf("bitset: FromWordsCountedUnsafe: %d words cannot back %d bits", len(ws), n))
	}
	return &Bitset{words: ws, n: n, ones: ones}
}

// Gather returns a new Bitset of len(idx) bits whose bit j equals b's bit
// idx[j] — the packed materialisation of a virtual sketch scattered across
// a large shared array. Every index must be in [0, b.Len()).
func (b *Bitset) Gather(idx []uint64) *Bitset {
	out := New(uint64(len(idx)))
	out.ones = gatherXor(out.words, out.words, b.words, b.n, idx)
	return out
}

// GatherXorCount returns the number of positions j where b's bit idx[j]
// differs from o's bit j — popcount(Gather(idx) XOR o) without
// materialising the gathered bitset. o.Len() must equal len(idx) and every
// index must be in [0, b.Len()).
//
// This is the inner loop of a materialized pair query: o holds one user's
// recovered (packed) virtual sketch, idx holds the other user's array
// positions, and the result is the differing-slot count z the estimator
// consumes. The XOR happens a word (64 slots) at a time.
func (b *Bitset) GatherXorCount(idx []uint64, o *Bitset) uint64 {
	if o.n != uint64(len(idx)) {
		panic("bitset: length mismatch in GatherXorCount")
	}
	return gatherXor(nil, o.words, b.words, b.n, idx)
}

// GatherXorWords is Gather and GatherXorCount on plain words: bit j of idx's
// block j/64 is b's bit idx[j], its word w goes to dst[j/64] unless dst is
// nil, and the result sums popcount(w ^ ows[j/64]), each block counted
// before it is stored, so dst may be ows. ows (and dst) hold at least
// (len(idx)+63)/64 words, ows's bits past len(idx) zero. Every index must be
// in [0, b.Len()).
func (b *Bitset) GatherXorWords(dst, ows, idx []uint64) uint64 {
	if dst != nil {
		dst = dst[:(len(idx)+63)/64] // the assembly body stores unchecked
	}
	return gatherXor(dst, ows, b.words, b.n, idx)
}

// check panics when i is out of range. The tail bits of the last word are
// never addressable, so the ones count stays exact.
func (b *Bitset) check(i uint64) {
	if i >= b.n {
		panicRange(i, b.n)
	}
}

// Serialization format: magic, length (bits), words. The ones count is
// recomputed on load so a corrupted count cannot be smuggled in.
const marshalMagic = uint32(0x0b175e70)

// MarshalBinary encodes the bitset.
func (b *Bitset) MarshalBinary() ([]byte, error) {
	out := make([]byte, 4+8+8*len(b.words))
	binary.LittleEndian.PutUint32(out[0:], marshalMagic)
	binary.LittleEndian.PutUint64(out[4:], b.n)
	for i, w := range b.words {
		binary.LittleEndian.PutUint64(out[12+8*i:], w)
	}
	return out, nil
}

// ErrCorrupt reports that a serialized bitset failed validation.
var ErrCorrupt = errors.New("bitset: corrupt serialized data")

// UnmarshalBinary decodes a bitset produced by MarshalBinary, validating the
// header, the payload length, and that no bits beyond Len are set.
func (b *Bitset) UnmarshalBinary(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != marshalMagic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint64(data[4:])
	if n == 0 {
		return fmt.Errorf("%w: zero length", ErrCorrupt)
	}
	nWords := int((n + 63) / 64)
	if len(data) != 12+8*nWords {
		return fmt.Errorf("%w: payload is %d bytes, want %d", ErrCorrupt, len(data), 12+8*nWords)
	}
	words := make([]uint64, nWords)
	ones := uint64(0)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[12+8*i:])
		ones += uint64(bits.OnesCount64(words[i]))
	}
	if tail := n & 63; tail != 0 {
		if words[nWords-1]&^((uint64(1)<<tail)-1) != 0 {
			return fmt.Errorf("%w: bits set beyond length %d", ErrCorrupt, n)
		}
	}
	b.words, b.n, b.ones = words, n, ones
	return nil
}
