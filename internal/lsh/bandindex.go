package lsh

import (
	"fmt"
	"math"
	"slices"

	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// BandIndex is a mutable banded LSH index over packed bit signatures — in
// this module, the packed recovered virtual sketches that
// core.VOS.RecoverSketch produces. It bands the raw bits of a packed
// signature (band j covers bits [j·r, (j+1)·r)) and supports replacement,
// single-bit toggles and removal, so a serving engine can keep it in sync
// with a stream that rewrites users in place.
//
// Each member holds a slot (freed slots are reused), and each (slot, band)
// pair a node: one record of the band's key, its first 64 bits and two
// links (a band wider than 64 rows keeps the rest beside the records).
// Nodes hang on doubly-linked chains off a power-of-two []int32 of heads,
// indexed by the low bits of the key; a chain may carry other buckets'
// nodes, which Candidates steps over. So buckets hold exactly their members'
// current keys — Len()·Bands nodes, no stale ones — and moving a node is an
// unlink and a link: a few stores, with no probe loop, no map operation and
// no allocation. Put re-keys only the bands whose bits changed. Toggle flips
// one stored bit and notes its band; noted bands are re-keyed, one hash
// each, before the index is next read or restructured (Candidates, Keys,
// Put, Remove), so a band toggled twice in between is re-keyed once, and
// one whose toggles cancelled keeps its key and its place. Candidates
// dedupes by stamping slots, so it writes scratch state too.
//
// Memory: a member costs one map entry plus, per band, a 32-byte record
// (8 bytes more per 64 rows past the first 64) and 8 to 16 bytes of heads
// (at least two a node), so Bands is a memory knob as much as a recall knob.
//
// BandIndex is not safe for concurrent use, probes included. Callers
// serialise access (internal/engine holds one mutex across maintenance and
// probing).
type BandIndex struct {
	params Params
	words  int      // minimum signature length in words
	bw     int      // words of one band's bits
	salts  []uint64 // per band: Hash64(band, Seed), where its key's fold starts

	slots map[stream.User]int32
	users []stream.User // slot → member (stale on a freed slot)
	free  []int32

	// Node n = slot·Bands + band: nodes[n], and its band's bits from 64 on
	// at rest[n·(bw−1):].
	nodes []node
	rest  []uint64
	heads []int32 // chain heads by key & (len−1), -1: none; len ≥ 2·len(nodes)
	noted []int32 // nodes Toggle flipped a bit of since the last settle

	stamps []uint32 // per slot: the last Candidates call that took it
	stamp  uint32
}

// node is a (member, band) record: the key it is chained under, the band's
// first 64 bits, its neighbours on its chain (-1: none), its member's slot,
// and whether it is in BandIndex.noted.
type node struct {
	key        uint64
	bits       uint64
	next, prev int32
	slot       int32
	noted      bool
}

// NewBandIndex creates an empty index over packed signatures of sigBits
// bits. The band structure must fit: Bands·Rows ≤ sigBits (banding reads
// the first Bands·Rows bits; a recovered sketch of k bits supports any
// b·r ≤ k).
func NewBandIndex(params Params, sigBits int) (*BandIndex, error) {
	if err := validateBandParams(params, sigBits); err != nil {
		return nil, err
	}
	salts := make([]uint64, params.Bands)
	for band := range salts {
		salts[band] = hashing.Hash64(uint64(band), params.Seed)
	}
	return &BandIndex{
		params: params,
		words:  (sigBits + 63) / 64,
		bw:     BandWords(params.Rows),
		salts:  salts,
		slots:  make(map[stream.User]int32),
		heads:  []int32{-1},
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
		keys[band] = packedBandKey(hashing.Hash64(uint64(band), p.Seed), p, words, band*p.Rows)
	}
	return keys, nil
}

// BandWords is the number of 64-bit words one band's rows pack into.
func BandWords(rows int) int { return (rows + 63) / 64 }

// packedBandKey hashes a band's Rows bits, found at bit offset off of words,
// into a bucket key, folding them in ≤64-bit chunks into the band's salt
// Hash64(band, Seed). Callers have validated that the bits lie inside the
// slice.
func packedBandKey(h uint64, p Params, words []uint64, off int) uint64 {
	for rem := p.Rows; rem > 0; {
		n := min(rem, 64)
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

// Len returns the number of indexed users.
func (ix *BandIndex) Len() int { return len(ix.slots) }

// Has reports whether u is currently indexed.
func (ix *BandIndex) Has(u stream.User) bool {
	_, ok := ix.slots[u]
	return ok
}

// Keys returns the bucket key member u currently holds in every band (nil
// when u is not indexed), in a slice of its own.
func (ix *BandIndex) Keys(u stream.User) []uint64 {
	s, ok := ix.slots[u]
	if !ok {
		return nil
	}
	ix.settle()
	b := ix.params.Bands
	keys := make([]uint64, b)
	for band := range keys {
		keys[band] = ix.nodes[int(s)*b+band].key
	}
	return keys
}

// ForEachMember calls fn for every member in unspecified order,
// stopping early when fn returns false. fn must not mutate the index.
func (ix *BandIndex) ForEachMember(fn func(u stream.User) bool) {
	for u := range ix.slots {
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
	ix.settle()
	bands := ix.params.Bands
	s, member := ix.slots[u]
	if !member {
		switch {
		case len(ix.free) > 0:
			s, ix.free = ix.free[len(ix.free)-1], ix.free[:len(ix.free)-1]
		case (len(ix.users)+1)*bands > math.MaxInt32: // node numbers are int32
			return fmt.Errorf("lsh: index is full at %d members", len(ix.users))
		default:
			s = int32(len(ix.users))
			ix.users = append(ix.users, u)
			ix.stamps = append(ix.stamps, 0)
			ix.nodes = append(ix.nodes, make([]node, bands)...)
			ix.rest = append(ix.rest, make([]uint64, bands*(ix.bw-1))...)
			if 2*len(ix.nodes) > len(ix.heads) {
				ix.grow()
			}
		}
		ix.slots[u], ix.users[s] = s, u
	}
	rows := ix.params.Rows
	for band := 0; band < bands; band++ {
		n := int(s)*bands + band
		ix.nodes[n].slot = s
		changed := !member
		for w := 0; w < ix.bw; w++ {
			if v, at := extractBits(words, band*rows+w*64, min(rows-w*64, 64)), ix.word(n, w); v != *at {
				*at, changed = v, true
			}
		}
		if !changed {
			continue
		}
		if member {
			ix.unlink(n)
		}
		ix.nodes[n].key = ix.nodeKey(n, band)
		ix.link(n)
	}
	return nil
}

// Toggle flips bit j of member u's signature — what an element (u, i, ±)
// does to bit ψ(i) of u's virtual sketch — and notes the band holding it,
// to be re-keyed once before the index is next read or restructured. A bit
// outside the banded bits [0, Bands·Rows) changes no key. It reports
// whether u is indexed; a non-member is left alone, as it needs a key in
// every band, which only Put can give it.
func (ix *BandIndex) Toggle(u stream.User, j int) bool {
	s, ok := ix.slots[u]
	if !ok || j < 0 || j >= ix.params.SignatureLen() {
		return ok
	}
	band, r := j/ix.params.Rows, j%ix.params.Rows
	n := int(s)*ix.params.Bands + band
	*ix.word(n, r>>6) ^= 1 << (r & 63)
	if !ix.nodes[n].noted {
		ix.nodes[n].noted = true
		ix.noted = append(ix.noted, int32(n))
	}
	return true
}

// Remove drops user u from the index and from every bucket it is in;
// removing an absent user is a no-op.
func (ix *BandIndex) Remove(u stream.User) {
	s, ok := ix.slots[u]
	if !ok {
		return
	}
	ix.settle()
	for band := 0; band < ix.params.Bands; band++ {
		ix.unlink(int(s)*ix.params.Bands + band)
	}
	delete(ix.slots, u)
	ix.free = append(ix.free, s)
}

// Candidates returns the distinct users sharing at least one band bucket
// with the packed signature, excluding self, sorted for determinism.
func (ix *BandIndex) Candidates(self stream.User, words []uint64) ([]stream.User, error) {
	if len(words) < ix.words {
		return nil, fmt.Errorf("lsh: packed signature has %d words, index needs %d", len(words), ix.words)
	}
	ix.settle()
	if ix.stamp++; ix.stamp == 0 {
		clear(ix.stamps)
		ix.stamp = 1
	}
	out := []stream.User{}
	bands, mask := ix.params.Bands, uint64(len(ix.heads)-1)
	for band := 0; band < bands; band++ {
		key := packedBandKey(ix.salts[band], ix.params, words, band*ix.params.Rows)
		for n := ix.heads[key&mask]; n >= 0; n = ix.nodes[n].next {
			nd := &ix.nodes[n]
			if nd.key != key || int(n)-int(nd.slot)*bands != band {
				continue // another bucket's node on the same chain
			}
			if u := ix.users[nd.slot]; u != self && ix.stamps[nd.slot] != ix.stamp {
				ix.stamps[nd.slot] = ix.stamp
				out = append(out, u)
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// word returns word w of node n's band bits.
func (ix *BandIndex) word(n, w int) *uint64 {
	if w == 0 {
		return &ix.nodes[n].bits
	}
	return &ix.rest[n*(ix.bw-1)+w-1]
}

// nodeKey hashes node n's stored bits, those of band, into its bucket key:
// packedBandKey of the band's bits, folded from its salt.
func (ix *BandIndex) nodeKey(n, band int) uint64 {
	h := ix.salts[band]
	for w := 0; w < ix.bw; w++ {
		h = hashing.Hash64(h^*ix.word(n, w), ix.params.Seed)
	}
	return h
}

// settle re-keys every band Toggle noted since the last settle, once each:
// a node whose key came out unchanged (its toggles cancelled) stays put.
func (ix *BandIndex) settle() {
	for _, n := range ix.noted {
		nd := &ix.nodes[n]
		nd.noted = false
		if key := ix.nodeKey(int(n), int(n)-int(nd.slot)*ix.params.Bands); key != nd.key {
			ix.unlink(int(n))
			nd.key = key
			ix.link(int(n))
		}
	}
	ix.noted = ix.noted[:0]
}

// link makes node n, holding its key, the head of its home's chain.
func (ix *BandIndex) link(n int) {
	h := ix.nodes[n].key & uint64(len(ix.heads)-1)
	head := ix.heads[h]
	ix.nodes[n].prev, ix.nodes[n].next = -1, head
	if head >= 0 {
		ix.nodes[head].prev = int32(n)
	}
	ix.heads[h] = int32(n)
}

// unlink takes node n, still holding the key it was linked under, out of
// its chain.
func (ix *BandIndex) unlink(n int) {
	nd := &ix.nodes[n]
	if nd.next >= 0 {
		ix.nodes[nd.next].prev = nd.prev
	}
	if nd.prev >= 0 {
		ix.nodes[nd.prev].next = nd.next
	} else {
		ix.heads[nd.key&uint64(len(ix.heads)-1)] = nd.next
	}
}

// grow doubles the heads until they are at least twice the nodes, and
// re-links every chained node under the new mask.
func (ix *BandIndex) grow() {
	size, old := len(ix.heads), ix.heads
	for size < 2*len(ix.nodes) {
		size *= 2
	}
	ix.heads = make([]int32, size)
	for i := range ix.heads {
		ix.heads[i] = -1
	}
	for _, n := range old {
		for n >= 0 {
			next := ix.nodes[n].next
			ix.link(int(n))
			n = next
		}
	}
}
