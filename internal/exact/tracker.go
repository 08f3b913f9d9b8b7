package exact

import (
	"fmt"

	"github.com/vossketch/vos/internal/stream"
)

// PairTracker maintains the exact common-item count s_uv of a fixed set of
// tracked pairs incrementally: O(pairs touching u) per stream element
// instead of O(|S_u| + |S_v|) per query. The experiment harness queries
// every tracked pair at every checkpoint, so incremental maintenance keeps
// ground-truth cost from dominating the runs.
type PairTracker struct {
	store  *Store
	pairs  []Pair
	counts []int
	// byUser maps a user to the indices of tracked pairs containing it.
	byUser map[stream.User][]int
}

// NewPairTracker builds a tracker over the given pairs, starting from an
// empty graph. Duplicate pairs are rejected.
func NewPairTracker(pairs []Pair) (*PairTracker, error) {
	t := &PairTracker{
		store:  NewStore(),
		pairs:  make([]Pair, len(pairs)),
		counts: make([]int, len(pairs)),
		byUser: make(map[stream.User][]int),
	}
	seen := make(map[Pair]struct{}, len(pairs))
	for idx, p := range pairs {
		p = MakePair(p.U, p.V)
		if _, dup := seen[p]; dup {
			return nil, fmt.Errorf("exact: duplicate tracked pair (%d, %d)", p.U, p.V)
		}
		seen[p] = struct{}{}
		t.pairs[idx] = p
		t.byUser[p.U] = append(t.byUser[p.U], idx)
		t.byUser[p.V] = append(t.byUser[p.V], idx)
	}
	return t, nil
}

// Apply folds one element into the tracker and its underlying store.
func (t *PairTracker) Apply(e stream.Edge) error {
	// Count updates look only at the partner's membership, which this
	// element (a mutation of e.User's set) cannot affect, so applying to
	// the store first is safe and lets infeasible elements fail before
	// any count is touched.
	delta := 1
	if e.Op == stream.Delete {
		delta = -1
	}
	// Validate first so counts stay consistent on infeasible input.
	if err := t.store.Apply(e); err != nil {
		return err
	}
	for _, idx := range t.byUser[e.User] {
		p := t.pairs[idx]
		partner := p.U
		if partner == e.User {
			partner = p.V
		}
		if t.store.Has(partner, e.Item) {
			t.counts[idx] += delta
		}
	}
	return nil
}

// CommonItems returns the maintained s_uv of tracked pair idx.
func (t *PairTracker) CommonItems(idx int) int { return t.counts[idx] }

// Jaccard returns the exact Jaccard of tracked pair idx.
func (t *PairTracker) Jaccard(idx int) float64 {
	p := t.pairs[idx]
	inter := t.counts[idx]
	union := t.store.Cardinality(p.U) + t.store.Cardinality(p.V) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
