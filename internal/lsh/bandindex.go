package lsh

import (
	"fmt"
	"slices"

	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// BandIndex is a mutable banded LSH index over packed bit signatures — in
// this module, the packed recovered virtual sketches that
// core.VOS.RecoverSketch produces. It bands the raw bits of a packed
// signature (band j covers bits [j·r, (j+1)·r)) and supports replacement
// and removal, so a serving engine can keep it in sync with a stream that
// rewrites users in place.
//
// Mutation is by key: each member remembers the bucket key it currently
// holds in every band, which is what lets a re-key take the member out of
// the bucket it is leaving, so buckets hold exactly their members' current
// keys — Len()·Bands entries, one per (member, band), no stale ones — and
// probes only read. Put re-keys only the bands whose bits changed and
// PutBand re-keys one band from that band's bits alone, so a write that
// flips one bit of a signature costs one key hash, one bucket removal and
// one bucket append, and an unchanged band costs nothing.
//
// Memory: a member costs one map entry plus, per band, its remembered key
// and one bucket entry (8 bytes each before map/slice overhead), so sizing
// Bands is a memory knob as much as a recall knob.
//
// BandIndex is not safe for concurrent use. Callers serialise access
// (internal/engine holds one mutex across maintenance and probing).
type BandIndex struct {
	params  Params
	sigBits int
	words   int // minimum signature length in words
	buckets []map[uint64][]stream.User
	members map[stream.User][]uint64 // member → its current key in every band
}

// NewBandIndex creates an empty index over packed signatures of sigBits
// bits. The band structure must fit: Bands·Rows ≤ sigBits (banding reads
// the first Bands·Rows bits; a recovered sketch of k bits supports any
// b·r ≤ k).
func NewBandIndex(params Params, sigBits int) (*BandIndex, error) {
	if err := validateBandParams(params, sigBits); err != nil {
		return nil, err
	}
	buckets := make([]map[uint64][]stream.User, params.Bands)
	for i := range buckets {
		buckets[i] = make(map[uint64][]stream.User)
	}
	return &BandIndex{
		params:  params,
		sigBits: sigBits,
		words:   (sigBits + 63) / 64,
		buckets: buckets,
		members: make(map[stream.User][]uint64),
	}, nil
}

// validateBandParams checks a band structure against a packed signature
// width, rejecting overflowing Bands·Rows products before they can be used
// as slice math.
func validateBandParams(p Params, sigBits int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	sig := p.SignatureLen()
	if sig/p.Rows != p.Bands { // Bands·Rows overflowed int
		return fmt.Errorf("lsh: bands %d x rows %d overflows", p.Bands, p.Rows)
	}
	if sigBits <= 0 {
		return fmt.Errorf("lsh: signature bits must be positive, got %d", sigBits)
	}
	if sig > sigBits {
		return fmt.Errorf("lsh: band structure needs %d bits (bands %d x rows %d), signature has %d",
			sig, p.Bands, p.Rows, sigBits)
	}
	return nil
}

// BandKeys returns the Bands bucket keys of a packed signature of sigBits
// bits: key j hashes bits [j·Rows, (j+1)·Rows) with the params' seed. It
// validates the band structure and the slice length, so arbitrary (even
// adversarial) inputs error instead of reading out of bounds — the
// contract FuzzBandExtraction pins.
func BandKeys(p Params, words []uint64, sigBits int) ([]uint64, error) {
	if err := validateBandParams(p, sigBits); err != nil {
		return nil, err
	}
	if len(words) < (sigBits+63)/64 {
		return nil, fmt.Errorf("lsh: packed signature has %d words, %d bits need %d",
			len(words), sigBits, (sigBits+63)/64)
	}
	keys := make([]uint64, p.Bands)
	for band := range keys {
		keys[band] = packedBandKey(p, band, words, band*p.Rows)
	}
	return keys, nil
}

// BandKey returns the bucket key of one band from that band's bits alone:
// bits holds the band's Rows bits packed from bit 0, and the result equals
// BandKeys(...)[band] of any signature carrying those bits at
// [band·Rows, (band+1)·Rows). It is what lets a caller that knows which band
// a write touched re-key it without materialising the rest of the signature.
func BandKey(p Params, band int, bits []uint64) (uint64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if band < 0 || band >= p.Bands {
		return 0, fmt.Errorf("lsh: band %d outside [0, %d)", band, p.Bands)
	}
	if need := BandWords(p.Rows); len(bits) < need {
		return 0, fmt.Errorf("lsh: band has %d words, %d rows need %d", len(bits), p.Rows, need)
	}
	return packedBandKey(p, band, bits, 0), nil
}

// BandWords is the number of 64-bit words one band's rows pack into.
func BandWords(rows int) int { return (rows + 63) / 64 }

// packedBandKey hashes the band's Rows bits, found at bit offset off of
// words, into a bucket key, folding them in ≤64-bit chunks. Callers have
// validated that the bits lie inside the slice.
func packedBandKey(p Params, band int, words []uint64, off int) uint64 {
	h := hashing.Hash64(uint64(band), p.Seed)
	for rem := p.Rows; rem > 0; {
		n := rem
		if n > 64 {
			n = 64
		}
		h = hashing.Hash64(h^extractBits(words, off, n), p.Seed)
		off += n
		rem -= n
	}
	return h
}

// extractBits returns bits [off, off+n) of the packed words, n ≤ 64,
// little-endian within and across words (bit i lives at words[i/64] >>
// (i%64)). The caller guarantees off+n ≤ 64·len(words).
func extractBits(words []uint64, off, n int) uint64 {
	w := off >> 6
	sh := uint(off & 63)
	v := words[w] >> sh
	if sh != 0 && w+1 < len(words) {
		v |= words[w+1] << (64 - sh)
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	return v
}

// Params returns the index's band structure.
func (ix *BandIndex) Params() Params { return ix.params }

// SignatureBits returns the packed signature width the index was built for.
func (ix *BandIndex) SignatureBits() int { return ix.sigBits }

// Len returns the number of indexed users.
func (ix *BandIndex) Len() int { return len(ix.members) }

// Has reports whether u is currently indexed.
func (ix *BandIndex) Has(u stream.User) bool {
	_, ok := ix.members[u]
	return ok
}

// Keys returns the bucket key member u currently holds in every band (nil
// when u is not indexed). The slice is the index's own: read-only, and
// valid until the next mutation.
func (ix *BandIndex) Keys(u stream.User) []uint64 { return ix.members[u] }

// ForEachMember calls fn for every member in unspecified order,
// stopping early when fn returns false. fn must not mutate the index.
func (ix *BandIndex) ForEachMember(fn func(u stream.User) bool) {
	for u := range ix.members {
		if !fn(u) {
			return
		}
	}
}

// Put indexes (or re-indexes) user u under the packed signature. Of a
// previous banding of u only the bands whose bits changed are re-keyed, and
// an identical signature changes nothing.
func (ix *BandIndex) Put(u stream.User, words []uint64) error {
	if len(words) < ix.words {
		return fmt.Errorf("lsh: packed signature has %d words, index needs %d", len(words), ix.words)
	}
	keys, member := ix.members[u]
	if !member {
		keys = make([]uint64, ix.params.Bands)
		ix.members[u] = keys
	}
	for band := range ix.buckets {
		key := packedBandKey(ix.params, band, words, band*ix.params.Rows)
		if member {
			if keys[band] == key {
				continue
			}
			ix.unplace(band, keys[band], u)
		}
		keys[band] = key
		ix.buckets[band][key] = append(ix.buckets[band][key], u)
	}
	return nil
}

// PutBand re-keys one band of member u from that band's bits alone (packed
// from bit 0, as BandKey reads them), leaving its other bands as they are.
// u must be indexed: a new member needs a key in every band, which only Put
// can give it.
func (ix *BandIndex) PutBand(u stream.User, band int, bits []uint64) error {
	key, err := BandKey(ix.params, band, bits)
	if err != nil {
		return err
	}
	keys, member := ix.members[u]
	if !member {
		return fmt.Errorf("lsh: user %d is not indexed", u)
	}
	if keys[band] != key {
		ix.unplace(band, keys[band], u)
		keys[band] = key
		ix.buckets[band][key] = append(ix.buckets[band][key], u)
	}
	return nil
}

// unplace takes member u out of the band's bucket for key, the one its
// remembered key says it is in, and deletes the bucket when u was alone.
func (ix *BandIndex) unplace(band int, key uint64, u stream.User) {
	bucket := ix.buckets[band][key]
	if len(bucket) == 1 {
		delete(ix.buckets[band], key)
		return
	}
	i, last := slices.Index(bucket, u), len(bucket)-1
	bucket[i] = bucket[last]
	ix.buckets[band][key] = bucket[:last]
}

// Remove drops user u from the index and from every bucket it is in;
// removing an absent user is a no-op.
func (ix *BandIndex) Remove(u stream.User) {
	for band, key := range ix.members[u] {
		ix.unplace(band, key, u)
	}
	delete(ix.members, u)
}

// Candidates returns the distinct users sharing at least one band bucket
// with the packed signature, excluding self, sorted for determinism.
func (ix *BandIndex) Candidates(self stream.User, words []uint64) ([]stream.User, error) {
	if len(words) < ix.words {
		return nil, fmt.Errorf("lsh: packed signature has %d words, index needs %d", len(words), ix.words)
	}
	seen := make(map[stream.User]struct{})
	for band := range ix.buckets {
		key := packedBandKey(ix.params, band, words, band*ix.params.Rows)
		for _, u := range ix.buckets[band][key] {
			if u != self {
				seen[u] = struct{}{}
			}
		}
	}
	out := make([]stream.User, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	slices.Sort(out)
	return out, nil
}
