package experiments

import (
	"fmt"
	"math"
	"sort"
)

// The paper's §V error metrics and the per-pair error distribution behind
// them: what the experiment tables print, computed from the truth and
// estimate vectors measure fills.

// AAPE returns (1/|P|)·Σ |s − ŝ|/|s| over pairs, the paper's metric for
// ŝ. Pairs with true value 0 are skipped (the paper tracks only pairs with
// at least one common item, so s > 0 by construction; the guard keeps the
// metric total and finite on arbitrary inputs). It returns NaN when no
// pair qualifies.
func AAPE(truth, estimate []float64) float64 {
	if len(truth) != len(estimate) {
		panic(fmt.Sprintf("experiments: AAPE length mismatch %d vs %d", len(truth), len(estimate)))
	}
	sum, n := 0.0, 0
	for i, s := range truth {
		if s == 0 {
			continue
		}
		sum += math.Abs(s-estimate[i]) / math.Abs(s)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// ARMSE returns sqrt((1/|P|)·Σ (Ĵ − J)²), the paper's metric for Ĵ.
// It returns NaN for empty input.
func ARMSE(truth, estimate []float64) float64 {
	if len(truth) != len(estimate) {
		panic(fmt.Sprintf("experiments: ARMSE length mismatch %d vs %d", len(truth), len(estimate)))
	}
	if len(truth) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i, j := range truth {
		d := estimate[i] - j
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(truth)))
}

// MeanBias returns the mean signed error (ŝ − s), separating systematic
// bias from noise in the ablation experiments.
func MeanBias(truth, estimate []float64) float64 {
	if len(truth) != len(estimate) {
		panic(fmt.Sprintf("experiments: MeanBias length mismatch %d vs %d", len(truth), len(estimate)))
	}
	if len(truth) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range truth {
		sum += estimate[i] - truth[i]
	}
	return sum / float64(len(truth))
}

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
		return Summary{}, fmt.Errorf("experiments: empty sample")
	}
	sorted := append([]float64(nil), xs...)
	for _, x := range sorted {
		if math.IsNaN(x) {
			return Summary{}, fmt.Errorf("experiments: NaN in sample")
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
		panic(fmt.Sprintf("experiments: RelativeErrors length mismatch %d vs %d", len(truth), len(estimate)))
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
