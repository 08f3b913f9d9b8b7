// Package oph implements One Permutation Hashing (Li, Owen, Zhang,
// NIPS'12), the paper's O(1)-per-update baseline, with the §III dynamic
// extension and the three densification schemes from the related work:
// rotation (Shrivastava & Li, ICML'14), improved ½-left/right densification
// (Shrivastava & Li, UAI'14), and optimal densification via 2-universal
// re-hashing (Shrivastava, ICML'17).
//
// OPH hashes every item once; the hash value selects one of k bins and the
// minimum hash within each bin is the bin's register. Only one register is
// touched per update, hence O(1). Bins that receive no item stay empty; the
// estimator either skips them (the NIPS'12 form the paper uses) or fills
// them by densification (static sets only).
//
// Like MinHash, the dynamic extension cannot recover a bin's second
// minimum after the minimum is deleted — the bin is emptied, producing the
// sampling bias the paper measures. That behaviour is intentional here.
package oph

import (
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// bin is one OPH register: the minimum item hash in the bin and the item
// achieving it.
type bin struct {
	hash     uint64
	item     stream.Item
	occupied bool
}

// Sketch is a dynamic OPH structure over all users of a stream.
type Sketch struct {
	k    int
	seed uint64
	bins map[stream.User][]bin
	card map[stream.User]int64
}

// New creates an OPH sketch with k bins per user.
func New(k int, seed uint64) *Sketch {
	if k <= 0 {
		panic("oph: k must be positive")
	}
	return &Sketch{
		k:    k,
		seed: seed,
		bins: make(map[stream.User][]bin),
		card: make(map[stream.User]int64),
	}
}

// K returns the number of bins per user.
func (s *Sketch) K() int { return s.k }

// BitsPerUser returns the §V accounting: k registers of 32 bits.
func (s *Sketch) BitsPerUser() uint64 { return 32 * uint64(s.k) }

// hashItem returns the single permutation value of an item; the top bits
// choose the bin (Lemire reduction preserves the "equal ranges" structure
// of the original [p(j−1)/k, pj/k) bins), the full value is the register.
func (s *Sketch) hashItem(i stream.Item) (binIdx int, h uint64) {
	h = hashing.Hash64(uint64(i), s.seed)
	return int(hashing.Reduce(h, uint64(s.k))), h
}

// Name identifies the method in the evaluation's tables and figures.
func (s *Sketch) Name() string { return "OPH" }

// Process folds one element into the sketch in O(1): one hash, one bin.
func (s *Sketch) Process(e stream.Edge) {
	bins := s.bins[e.User]
	if bins == nil {
		bins = make([]bin, s.k)
		s.bins[e.User] = bins
	}
	j, h := s.hashItem(e.Item)
	switch e.Op {
	case stream.Insert:
		s.card[e.User]++
		if !bins[j].occupied || h < bins[j].hash {
			bins[j] = bin{hash: h, item: e.Item, occupied: true}
		}
	case stream.Delete:
		s.card[e.User]--
		if bins[j].occupied && bins[j].item == e.Item {
			bins[j].occupied = false
		}
	}
}

// Cardinality returns the tracked n_u.
func (s *Sketch) Cardinality(u stream.User) int64 { return s.card[u] }

// EstimateJaccard implements the NIPS'12 estimator used in §III:
//
//	Ĵ = Σ 1(oph_j(S₁) = oph_j(S₂) ≠ ∅) / Σ 1(oph_j(S₁) ≠ ∅ ∨ oph_j(S₂) ≠ ∅).
func (s *Sketch) EstimateJaccard(u, v stream.User) float64 {
	bu, bv := s.bins[u], s.bins[v]
	if bu == nil || bv == nil {
		return 0
	}
	matches, nonEmpty := 0, 0
	for j := 0; j < s.k; j++ {
		ou, ov := bu[j].occupied, bv[j].occupied
		if !ou && !ov {
			continue
		}
		nonEmpty++
		if ou && ov && bu[j].hash == bv[j].hash {
			matches++
		}
	}
	if nonEmpty == 0 {
		return 0
	}
	return float64(matches) / float64(nonEmpty)
}

// EstimateCommonItems converts Ĵ through s = J·(n_u+n_v)/(J+1).
func (s *Sketch) EstimateCommonItems(u, v stream.User) float64 {
	j := s.EstimateJaccard(u, v)
	return j * float64(s.card[u]+s.card[v]) / (j + 1)
}

// FromSet builds a static OPH sketch of an item set under user key 0.
func FromSet(items []stream.Item, k int, seed uint64) *Sketch {
	s := New(k, seed)
	for _, it := range items {
		s.Process(stream.Edge{User: 0, Item: it, Op: stream.Insert})
	}
	return s
}

// Signature exposes the raw bins of user u: value and occupancy.
// Empty bins yield (0, false).
func (s *Sketch) Signature(u stream.User) ([]uint64, []bool) {
	bins := s.bins[u]
	vals := make([]uint64, s.k)
	occ := make([]bool, s.k)
	for j := 0; j < s.k; j++ {
		if bins != nil && bins[j].occupied {
			vals[j] = bins[j].hash
			occ[j] = true
		}
	}
	return vals, occ
}
