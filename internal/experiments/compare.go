package experiments

import (
	"fmt"

	"github.com/vossketch/vos/internal/similarity"
)

// Compare runs one dataset through every method and reports the per-pair
// relative-error distribution of ŝ (mean = AAPE, plus p50/p90/p99/max) —
// the deep-dive view behind the single-number figures, used to check that
// a method's advantage is not an artifact of a few outlier pairs.
func Compare(opts Options) (*Table, error) {
	opts = opts.normalized()
	ds := BuildDataset(opts.profile(), opts)
	pairs, median, err := TrackedPairs(ds, opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "compare",
		Title:  fmt.Sprintf("Per-pair relative error of ŝ on %s (k = %d)", opts.Dataset, opts.K32),
		Header: []string{"method", "mean(AAPE)", "p50", "p90", "p99", "max"},
	}
	t.AddNote("dataset %s: %d elements (%d deletions), %d tracked pairs (median s = %d); seed %d",
		ds.Profile.Name, len(ds.Edges), ds.Deletes, len(pairs), median, opts.Seed)

	ests, err := similarity.NewAll(opts.budget(ds.Profile), uint64(opts.Seed))
	if err != nil {
		return nil, err
	}
	c, err := measureFinal(ds.Edges, ests, pairs)
	if err != nil {
		return nil, err
	}
	for m, est := range ests {
		sum, err := Summarize(RelativeErrors(c.TruthS, c.EstS[m]))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", est.Name(), err)
		}
		t.AddRow(
			est.Name(),
			fmt.Sprintf("%.4f", sum.Mean),
			fmt.Sprintf("%.4f", sum.P50),
			fmt.Sprintf("%.4f", sum.P90),
			fmt.Sprintf("%.4f", sum.P99),
			fmt.Sprintf("%.4f", sum.Max),
		)
	}
	return t, nil
}
