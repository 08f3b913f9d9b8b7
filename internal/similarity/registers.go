package similarity

import (
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// MinHash (Broder et al.) and One Permutation Hashing (Li, Owen, Zhang,
// NIPS'12) are the paper's two register baselines, both with its §III
// fully-dynamic extension, and they are one structure: per user, k registers
// each holding the minimum hash seen in its slot and the item that achieved
// it. MinHash offers every item to all k registers under k independent hash
// functions, hence O(k) per update; OPH hashes the item once and the hash
// picks the single register it is offered to, hence O(1) — MinHash with one
// bin per item, which is how "Fast Similarity Sketching" treats it.
//
// Updating a register on insertion is exact, but on deletion the true
// second-minimum is unrecoverable without the full set, so the §III
// extension simply empties a register whose minimum item is unsubscribed.
// That makes the register a non-uniform sample once deletions occur — the
// sampling bias the paper demonstrates and VOS removes. The bias is
// reproduced here on purpose; these are the baselines, not a fix.

// register is one slot: the current minimum hash and the item that achieves
// it (needed to detect deletion of the minimum).
type register struct {
	hash     uint64
	item     stream.Item
	occupied bool
}

// registers is the table under both methods: k registers and the set size
// n_u for every user of the stream.
type registers struct {
	k    int
	regs map[stream.User][]register
	card map[stream.User]int64
}

func newRegisters(k int) registers {
	if k <= 0 {
		panic("similarity: k must be positive")
	}
	return registers{
		k:    k,
		regs: make(map[stream.User][]register),
		card: make(map[stream.User]int64),
	}
}

// row returns u's registers, allocating them on first touch.
func (t *registers) row(u stream.User) []register {
	regs := t.regs[u]
	if regs == nil {
		regs = make([]register, t.k)
		t.regs[u] = regs
	}
	return regs
}

// Cardinality returns the tracked n_u.
func (t *registers) Cardinality(u stream.User) int64 { return t.card[u] }

// matches counts, over u's and v's registers, the slots where both are
// occupied by the same hash and the slots where at least one is occupied.
func (t *registers) matches(u, v stream.User) (equal, nonEmpty int) {
	ru, rv := t.regs[u], t.regs[v]
	if ru == nil || rv == nil {
		return 0, 0
	}
	for j := range ru {
		ou, ov := ru[j].occupied, rv[j].occupied
		if !ou && !ov {
			continue
		}
		nonEmpty++
		if ou && ov && ru[j].hash == rv[j].hash {
			equal++
		}
	}
	return equal, nonEmpty
}

// commonItems converts a Jaccard estimate through the paper's identity
// s = J·(n_u+n_v)/(J+1).
func (t *registers) commonItems(j float64, u, v stream.User) float64 {
	return j * float64(t.card[u]+t.card[v]) / (j + 1)
}

// Signature exposes the raw registers of user u, value and occupancy; empty
// registers yield (0, false). It is what densification reads and how the
// tests observe the deletion bias.
func (t *registers) Signature(u stream.User) ([]uint64, []bool) {
	vals := make([]uint64, t.k)
	occ := make([]bool, t.k)
	for j, r := range t.regs[u] {
		if r.occupied {
			vals[j], occ[j] = r.hash, true
		}
	}
	return vals, occ
}

// MinHash is the dynamic MinHash baseline over all users of a stream.
type MinHash struct {
	registers
	family *hashing.Family
}

// NewMinHash creates a MinHash sketch with k registers per user.
func NewMinHash(k int, seed uint64) *MinHash {
	return &MinHash{registers: newRegisters(k), family: hashing.NewFamily(k, seed)}
}

// Name identifies the method in the evaluation's tables and figures.
func (s *MinHash) Name() string { return MethodMinHash }

// Process folds one element into the sketch in O(k): every register
// evaluates its own hash function on the item.
func (s *MinHash) Process(e stream.Edge) {
	regs := s.row(e.User)
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

// EstimateJaccard returns the §III estimator: the fraction of register
// pairs that are both occupied and equal, over k.
func (s *MinHash) EstimateJaccard(u, v stream.User) float64 {
	equal, _ := s.matches(u, v)
	return float64(equal) / float64(s.k)
}

// EstimateCommonItems converts Ĵ through s = J·(n_u+n_v)/(J+1).
func (s *MinHash) EstimateCommonItems(u, v stream.User) float64 {
	return s.commonItems(s.EstimateJaccard(u, v), u, v)
}

// OPH is the dynamic One Permutation Hashing baseline over all users of a
// stream. Bins that receive no item stay empty; the estimator either skips
// them (the NIPS'12 form the paper uses) or fills them by densification
// (static sets only, densify.go).
type OPH struct {
	registers
	seed uint64
}

// NewOPH creates an OPH sketch with k bins per user.
func NewOPH(k int, seed uint64) *OPH {
	return &OPH{registers: newRegisters(k), seed: seed}
}

// Name identifies the method in the evaluation's tables and figures.
func (s *OPH) Name() string { return MethodOPH }

// Process folds one element into the sketch in O(1): one hash, one bin. The
// top bits of the item's single permutation value choose the bin (Lemire
// reduction preserves the "equal ranges" structure of the original
// [p(j−1)/k, pj/k) bins), the full value is the register.
func (s *OPH) Process(e stream.Edge) {
	bins := s.row(e.User)
	h := hashing.Hash64(uint64(e.Item), s.seed)
	j := int(hashing.Reduce(h, uint64(s.k)))
	switch e.Op {
	case stream.Insert:
		s.card[e.User]++
		if !bins[j].occupied || h < bins[j].hash {
			bins[j] = register{hash: h, item: e.Item, occupied: true}
		}
	case stream.Delete:
		s.card[e.User]--
		if bins[j].occupied && bins[j].item == e.Item {
			bins[j].occupied = false
		}
	}
}

// EstimateJaccard implements the NIPS'12 estimator used in §III:
//
//	Ĵ = Σ 1(oph_j(S₁) = oph_j(S₂) ≠ ∅) / Σ 1(oph_j(S₁) ≠ ∅ ∨ oph_j(S₂) ≠ ∅).
func (s *OPH) EstimateJaccard(u, v stream.User) float64 {
	equal, nonEmpty := s.matches(u, v)
	if nonEmpty == 0 {
		return 0
	}
	return float64(equal) / float64(nonEmpty)
}

// EstimateCommonItems converts Ĵ through s = J·(n_u+n_v)/(J+1).
func (s *OPH) EstimateCommonItems(u, v stream.User) float64 {
	return s.commonItems(s.EstimateJaccard(u, v), u, v)
}
