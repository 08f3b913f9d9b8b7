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
// pair a node: the band's bits, the key they hash to, and its links in the
// chain of nodes sharing that key. One open-addressing table maps (band, key)
// to the head of its chain, so buckets hold exactly their members' current
// keys — Len()·Bands nodes, one per (member, band), no stale ones. Put
// re-keys only the bands whose bits changed, and Toggle flips one stored bit
// and re-keys its band: one key hash, an unlink and a link, with no map
// operation and no allocation. Candidates dedupes by stamping slots, so it
// writes scratch state too.
//
// Memory: a member costs one map entry plus, per band, its bits (8 bytes per
// 64 rows), its key (8) and two links (8), and the table 32–64 bytes per
// distinct key, so sizing Bands is a memory knob as much as a recall knob.
//
// BandIndex is not safe for concurrent use, probes included. Callers
// serialise access (internal/engine holds one mutex across maintenance and
// probing).
type BandIndex struct {
	params Params
	words  int // minimum signature length in words
	bw     int // words of one band's bits

	slots map[stream.User]int32
	users []stream.User // slot → member (stale on a freed slot)
	free  []int32

	// Node n = slot·Bands + band: bits[n·bw:(n+1)·bw], keys[n], and its
	// neighbours in its chain (-1: none).
	bits       []uint64
	keys       []uint64
	next, prev []int32

	table []bucket // a power of two long, at most half of it used
	used  int

	stamps []uint32 // per slot: the last Candidates call that took it
	stamp  uint32
}

// bucket is a table entry: the head node of band's chain for key, or a free
// entry when head is -1.
type bucket struct {
	key        uint64
	band, head int32
}

// NewBandIndex creates an empty index over packed signatures of sigBits
// bits. The band structure must fit: Bands·Rows ≤ sigBits (banding reads
// the first Bands·Rows bits; a recovered sketch of k bits supports any
// b·r ≤ k).
func NewBandIndex(params Params, sigBits int) (*BandIndex, error) {
	if err := validateBandParams(params, sigBits); err != nil {
		return nil, err
	}
	return &BandIndex{
		params: params,
		words:  (sigBits + 63) / 64,
		bw:     BandWords(params.Rows),
		slots:  make(map[stream.User]int32),
		table:  newTable(16),
	}, nil
}

func newTable(n int) []bucket {
	t := make([]bucket, n)
	for i := range t {
		t[i].head = -1
	}
	return t
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

// Len returns the number of indexed users.
func (ix *BandIndex) Len() int { return len(ix.slots) }

// Has reports whether u is currently indexed.
func (ix *BandIndex) Has(u stream.User) bool {
	_, ok := ix.slots[u]
	return ok
}

// Keys returns the bucket key member u currently holds in every band (nil
// when u is not indexed). The slice is the index's own: read-only, and
// valid until the next mutation.
func (ix *BandIndex) Keys(u stream.User) []uint64 {
	s, ok := ix.slots[u]
	if !ok {
		return nil
	}
	b := ix.params.Bands
	return ix.keys[int(s)*b : (int(s)+1)*b : (int(s)+1)*b]
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
	s, member := ix.slots[u]
	if !member {
		switch nodes := ix.params.Bands; {
		case len(ix.free) > 0:
			s, ix.free = ix.free[len(ix.free)-1], ix.free[:len(ix.free)-1]
		case (len(ix.users)+1)*nodes > math.MaxInt32: // node numbers are int32
			return fmt.Errorf("lsh: index is full at %d members", len(ix.users))
		default:
			s = int32(len(ix.users))
			ix.users = append(ix.users, u)
			ix.stamps = append(ix.stamps, 0)
			ix.bits = append(ix.bits, make([]uint64, nodes*ix.bw)...)
			ix.keys = append(ix.keys, make([]uint64, nodes)...)
			ix.next = append(ix.next, make([]int32, nodes)...)
			ix.prev = append(ix.prev, make([]int32, nodes)...)
		}
		ix.slots[u], ix.users[s] = s, u
	}
	rows := ix.params.Rows
	for band := 0; band < ix.params.Bands; band++ {
		n := int(s)*ix.params.Bands + band
		bits, changed := ix.bits[n*ix.bw:(n+1)*ix.bw], !member
		for w := range bits {
			if v := extractBits(words, band*rows+w*64, min(rows-w*64, 64)); v != bits[w] {
				bits[w], changed = v, true
			}
		}
		if !changed {
			continue
		}
		if member {
			ix.unlink(n, band)
		}
		ix.keys[n] = packedBandKey(ix.params, band, bits, 0)
		ix.link(n, band)
	}
	return nil
}

// Toggle flips bit j of member u's signature — what an element (u, i, ±)
// does to bit ψ(i) of u's virtual sketch — and re-keys the band holding it.
// A bit outside the banded bits [0, Bands·Rows) changes no key. It reports
// whether u is indexed; a non-member is left alone, as it needs a key in
// every band, which only Put can give it.
func (ix *BandIndex) Toggle(u stream.User, j int) bool {
	s, ok := ix.slots[u]
	if !ok || j < 0 || j >= ix.params.SignatureLen() {
		return ok
	}
	band, r := j/ix.params.Rows, j%ix.params.Rows
	n := int(s)*ix.params.Bands + band
	bits := ix.bits[n*ix.bw : (n+1)*ix.bw]
	bits[r>>6] ^= 1 << (r & 63)
	ix.unlink(n, band)
	ix.keys[n] = packedBandKey(ix.params, band, bits, 0)
	ix.link(n, band)
	return true
}

// Remove drops user u from the index and from every bucket it is in;
// removing an absent user is a no-op.
func (ix *BandIndex) Remove(u stream.User) {
	s, ok := ix.slots[u]
	if !ok {
		return
	}
	for band := 0; band < ix.params.Bands; band++ {
		ix.unlink(int(s)*ix.params.Bands+band, band)
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
	if ix.stamp++; ix.stamp == 0 {
		clear(ix.stamps)
		ix.stamp = 1
	}
	out := []stream.User{}
	for band := 0; band < ix.params.Bands; band++ {
		i, ok := ix.find(band, packedBandKey(ix.params, band, words, band*ix.params.Rows))
		if !ok {
			continue
		}
		for n := ix.table[i].head; n >= 0; n = ix.next[n] {
			s := int(n) / ix.params.Bands
			if u := ix.users[s]; u != self && ix.stamps[s] != ix.stamp {
				ix.stamps[s] = ix.stamp
				out = append(out, u)
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// home is where the table's probe for (band, key) starts.
func (ix *BandIndex) home(band int, key uint64) int {
	return int((key ^ uint64(band)*0x9e3779b97f4a7c15) & uint64(len(ix.table)-1))
}

// find returns the table entry of (band, key) and true, or the free entry
// its probe ended on and false.
func (ix *BandIndex) find(band int, key uint64) (int, bool) {
	mask := len(ix.table) - 1
	for i := ix.home(band, key); ; i = (i + 1) & mask {
		if b := ix.table[i]; b.head < 0 || b.key == key && int(b.band) == band {
			return i, b.head >= 0
		}
	}
}

// link makes node n, of band and holding keys[n], the head of its chain.
func (ix *BandIndex) link(n, band int) {
	i, ok := ix.find(band, ix.keys[n])
	ix.prev[n], ix.next[n] = -1, -1
	if ok {
		ix.next[n] = ix.table[i].head
		ix.prev[ix.next[n]] = int32(n)
		ix.table[i].head = int32(n)
		return
	}
	ix.table[i] = bucket{key: ix.keys[n], band: int32(band), head: int32(n)}
	if ix.used++; 2*ix.used > len(ix.table) {
		old := ix.table
		ix.table = newTable(2 * len(old))
		for _, b := range old {
			if b.head >= 0 {
				i, _ := ix.find(int(b.band), b.key)
				ix.table[i] = b
			}
		}
	}
}

// unlink takes node n, of band and holding keys[n], out of its chain, and
// the chain's entry out of the table when n was alone in it.
func (ix *BandIndex) unlink(n, band int) {
	p, nx := ix.prev[n], ix.next[n]
	if nx >= 0 {
		ix.prev[nx] = p
	}
	if p >= 0 {
		ix.next[p] = nx
		return
	}
	i, _ := ix.find(band, ix.keys[n])
	if ix.table[i].head = nx; nx >= 0 {
		return
	}
	// Backward-shift deletion: pull later entries of the probe run into the
	// hole wherever their probe passes it, so no run is cut short.
	ix.used--
	mask := len(ix.table) - 1
	for j := (i + 1) & mask; ix.table[j].head >= 0; j = (j + 1) & mask {
		if h := ix.home(int(ix.table[j].band), ix.table[j].key); (j-h)&mask >= (j-i)&mask {
			ix.table[i], i = ix.table[j], j
		}
	}
	ix.table[i].head = -1
}
