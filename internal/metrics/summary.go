package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary is a distributional view of per-pair errors: beyond the paper's
// single-number AAPE/ARMSE, the ablation write-ups and the inspector
// report where the error mass sits (a method with good mean but heavy p99
// behaves very differently in production).
type Summary struct {
	Count         int
	Mean          float64
	P50, P90, P99 float64
	Max           float64
}

// Summarize computes the summary of a sample. NaNs are rejected (they
// indicate an upstream bug, not a data property).
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, fmt.Errorf("metrics: empty sample")
	}
	sorted := append([]float64(nil), xs...)
	for _, x := range sorted {
		if math.IsNaN(x) {
			return Summary{}, fmt.Errorf("metrics: NaN in sample")
		}
	}
	sort.Float64s(sorted)
	mean := 0.0
	for _, x := range sorted {
		mean += x
	}
	mean /= float64(len(sorted))
	return Summary{
		Count: len(sorted),
		Mean:  mean,
		P50:   quantile(sorted, 0.50),
		P90:   quantile(sorted, 0.90),
		P99:   quantile(sorted, 0.99),
		Max:   sorted[len(sorted)-1],
	}, nil
}

// quantile returns the q-quantile of a sorted sample by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RelativeErrors returns |truth − estimate| / |truth| for pairs with
// nonzero truth, in input order (zero-truth pairs are skipped, matching
// the AAPE convention).
func RelativeErrors(truth, estimate []float64) []float64 {
	if len(truth) != len(estimate) {
		panic(fmt.Sprintf("metrics: RelativeErrors length mismatch %d vs %d", len(truth), len(estimate)))
	}
	out := make([]float64, 0, len(truth))
	for i := range truth {
		if truth[i] == 0 {
			continue
		}
		out = append(out, math.Abs(truth[i]-estimate[i])/math.Abs(truth[i]))
	}
	return out
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f p50=%.4f p90=%.4f p99=%.4f max=%.4f",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}
