// Package minhash implements the MinHash baseline (Broder et al.) together
// with the fully-dynamic extension described in the paper's §III, and the
// b-bit minwise signature compaction of Li & König (WWW'10).
//
// MinHash keeps, per user, k registers holding the minimum hash value of
// the user's items under k independent hash functions; the fraction of
// matching registers estimates the Jaccard coefficient. Updating a register
// on insertion is exact, but on deletion the true second-minimum is
// unrecoverable without the full set, so the §III extension simply empties
// a register whose minimum item is unsubscribed. That makes the register a
// non-uniform sample once deletions occur — the sampling bias the paper
// demonstrates and VOS removes. This package intentionally reproduces that
// bias; it is the baseline, not a fix.
package minhash

import (
	"fmt"
	"math"

	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// register is one MinHash slot: the current minimum hash and the item that
// achieves it (needed to detect deletion of the minimum).
type register struct {
	hash     uint64
	item     stream.Item
	occupied bool
}

// Sketch is a dynamic MinHash structure over all users of a stream.
type Sketch struct {
	k      int
	family *hashing.Family
	regs   map[stream.User][]register
	card   map[stream.User]int64
}

// New creates a MinHash sketch with k registers per user.
func New(k int, seed uint64) *Sketch {
	if k <= 0 {
		panic("minhash: k must be positive")
	}
	return &Sketch{
		k:      k,
		family: hashing.NewFamily(k, seed),
		regs:   make(map[stream.User][]register),
		card:   make(map[stream.User]int64),
	}
}

// K returns the number of registers per user.
func (s *Sketch) K() int { return s.k }

// BitsPerUser returns the §V memory accounting: k registers of 32 bits.
func (s *Sketch) BitsPerUser() uint64 { return 32 * uint64(s.k) }

// Name identifies the method in the evaluation's tables and figures.
func (s *Sketch) Name() string { return "MinHash" }

// Process folds one element into the sketch in O(k): every register
// evaluates its own hash function on the item.
func (s *Sketch) Process(e stream.Edge) {
	regs := s.regs[e.User]
	if regs == nil {
		regs = make([]register, s.k)
		s.regs[e.User] = regs
	}
	switch e.Op {
	case stream.Insert:
		s.card[e.User]++
		for j := 0; j < s.k; j++ {
			h := s.family.Hash(j, uint64(e.Item))
			if !regs[j].occupied || h < regs[j].hash {
				regs[j] = register{hash: h, item: e.Item, occupied: true}
			}
		}
	case stream.Delete:
		s.card[e.User]--
		for j := 0; j < s.k; j++ {
			// §III case 2: the register's minimum item disappears and
			// the true new minimum is unknowable — empty the register.
			if regs[j].occupied && regs[j].item == e.Item {
				regs[j].occupied = false
			}
		}
	}
}

// Cardinality returns the tracked n_u.
func (s *Sketch) Cardinality(u stream.User) int64 { return s.card[u] }

// EstimateJaccard returns the §III estimator: the fraction of register
// pairs that are both occupied and equal, over k.
func (s *Sketch) EstimateJaccard(u, v stream.User) float64 {
	ru, rv := s.regs[u], s.regs[v]
	if ru == nil || rv == nil {
		return 0
	}
	matches := 0
	for j := 0; j < s.k; j++ {
		if ru[j].occupied && rv[j].occupied && ru[j].hash == rv[j].hash {
			matches++
		}
	}
	return float64(matches) / float64(s.k)
}

// EstimateCommonItems converts the Jaccard estimate through the paper's
// identity s = J·(n_u+n_v)/(J+1).
func (s *Sketch) EstimateCommonItems(u, v stream.User) float64 {
	j := s.EstimateJaccard(u, v)
	return j * float64(s.card[u]+s.card[v]) / (j + 1)
}

// FromSet builds the static MinHash signature of an item set, the classic
// (insertion-only) use of the method; used by tests and by BBitSignature.
func FromSet(items []stream.Item, k int, seed uint64) *Sketch {
	s := New(k, seed)
	for _, it := range items {
		s.Process(stream.Edge{User: 0, Item: it, Op: stream.Insert})
	}
	return s
}

// Signature returns the k register hash values of user u; empty registers
// yield MaxUint64. Exposed for compaction layers (b-bit, odd-sketch-over-
// MinHash) and diagnostics.
func (s *Sketch) Signature(u stream.User) []uint64 {
	regs := s.regs[u]
	out := make([]uint64, s.k)
	for j := range out {
		if regs != nil && regs[j].occupied {
			out[j] = regs[j].hash
		} else {
			out[j] = math.MaxUint64
		}
	}
	return out
}

// BBitSignature is the b-bit minwise compaction: only the lowest b bits of
// every register are stored. Collisions of truncated values inflate the
// match count; Jaccard converts back with the Li–König correction.
type BBitSignature struct {
	b    uint
	k    int
	bits []uint64 // packed b-bit values
}

// NewBBit compacts a user's signature to b bits per register (1 ≤ b ≤ 32).
func NewBBit(s *Sketch, u stream.User, b uint) *BBitSignature {
	if b < 1 || b > 32 {
		panic(fmt.Sprintf("minhash: b = %d out of [1, 32]", b))
	}
	sig := s.Signature(u)
	mask := uint64(1)<<b - 1
	out := &BBitSignature{b: b, k: s.k, bits: make([]uint64, s.k)}
	for j, h := range sig {
		out.bits[j] = h & mask
	}
	return out
}

// BitsTotal returns the storage cost in bits, the quantity b-bit hashing
// optimises.
func (g *BBitSignature) BitsTotal() uint64 { return uint64(g.k) * uint64(g.b) }

// EstimateJaccard applies the collision correction
// Ĵ = (m − c)/(1 − c) with m the match fraction and c = 2^−b the accidental
// collision rate of truncated values.
func (g *BBitSignature) EstimateJaccard(o *BBitSignature) float64 {
	if g.b != o.b || g.k != o.k {
		panic("minhash: incompatible b-bit signatures")
	}
	matches := 0
	for j := 0; j < g.k; j++ {
		if g.bits[j] == o.bits[j] {
			matches++
		}
	}
	m := float64(matches) / float64(g.k)
	c := 1 / float64(uint64(1)<<g.b)
	j := (m - c) / (1 - c)
	if j < 0 {
		return 0
	}
	if j > 1 {
		return 1
	}
	return j
}
