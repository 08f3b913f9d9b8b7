// Package minhash implements the MinHash baseline (Broder et al.) together
// with the fully-dynamic extension described in the paper's §III.
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
// (insertion-only) use of the method; used by tests.
func FromSet(items []stream.Item, k int, seed uint64) *Sketch {
	s := New(k, seed)
	for _, it := range items {
		s.Process(stream.Edge{User: 0, Item: it, Op: stream.Insert})
	}
	return s
}

// Signature returns the k register hash values of user u; empty registers
// yield MaxUint64. Exposed for diagnostics: it is how the tests observe
// the deletion bias.
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
