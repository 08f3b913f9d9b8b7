package experiments

import (
	"github.com/vossketch/vos/internal/exact"
	"github.com/vossketch/vos/internal/similarity"
	"github.com/vossketch/vos/internal/stream"
)

// checkpoint is what the tracked pairs read at one stream position: the
// exact s and J of every pair, and every estimator's ŝ and Ĵ beside them.
type checkpoint struct {
	// T is the stream position (elements processed so far).
	T uint64
	// TruthS and TruthJ are indexed by tracked pair.
	TruthS, TruthJ []float64
	// EstS and EstJ are indexed by estimator, then by tracked pair.
	EstS, EstJ [][]float64
}

// measure is the §V protocol, written once: stream the edges into the
// estimators beside an exact oracle and, each time the number of elements
// processed reaches the next entry of at (ascending), read the truth and
// every estimator's answer for every tracked pair. Every experiment that
// scores estimates against truth — fig-3, the λ and load ablations,
// abl-delbias, compare — is a table written from what this returns.
func measure(edges []stream.Edge, ests []similarity.Estimator, pairs []exact.Pair, at []int) ([]checkpoint, error) {
	tracker, err := exact.NewPairTracker(pairs)
	if err != nil {
		return nil, err
	}
	out := make([]checkpoint, 0, len(at))
	for idx, e := range edges {
		if err := tracker.Apply(e); err != nil {
			return nil, err
		}
		for _, est := range ests {
			est.Process(e)
		}
		if len(out) == len(at) || idx+1 != at[len(out)] {
			continue
		}
		c := checkpoint{
			T:      uint64(idx + 1),
			TruthS: make([]float64, len(pairs)),
			TruthJ: make([]float64, len(pairs)),
			EstS:   make([][]float64, len(ests)),
			EstJ:   make([][]float64, len(ests)),
		}
		for i := range pairs {
			c.TruthS[i] = float64(tracker.CommonItems(i))
			c.TruthJ[i] = tracker.Jaccard(i)
		}
		for m, est := range ests {
			c.EstS[m] = make([]float64, len(pairs))
			c.EstJ[m] = make([]float64, len(pairs))
			for i, p := range pairs {
				c.EstS[m][i] = est.EstimateCommonItems(p.U, p.V)
				c.EstJ[m][i] = est.EstimateJaccard(p.U, p.V)
			}
		}
		out = append(out, c)
	}
	return out, nil
}

// measureFinal is measure read once, at the end of the stream.
func measureFinal(edges []stream.Edge, ests []similarity.Estimator, pairs []exact.Pair) (checkpoint, error) {
	cs, err := measure(edges, ests, pairs, []int{len(edges)})
	if err != nil {
		return checkpoint{}, err
	}
	return cs[0], nil
}
