package experiments_test

// The §V metrics' tests: AAPE, ARMSE and MeanBias, then Summarize,
// quantile ordering and RelativeErrors.

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/vossketch/vos/internal/experiments"
)

func TestAAPE(t *testing.T) {
	truth := []float64{100, 200, 50}
	est := []float64{110, 180, 50}
	// |10|/100 + |20|/200 + 0 = 0.1 + 0.1 + 0 over 3 = 0.0667
	want := (0.1 + 0.1 + 0) / 3
	if got := experiments.AAPE(truth, est); math.Abs(got-want) > 1e-12 {
		t.Errorf("AAPE = %v, want %v", got, want)
	}
}

func TestAAPESkipsZeroTruth(t *testing.T) {
	got := experiments.AAPE([]float64{0, 10}, []float64{5, 20})
	if got != 1.0 {
		t.Errorf("AAPE = %v, want 1.0 (zero-truth pair skipped)", got)
	}
	if !math.IsNaN(experiments.AAPE([]float64{0}, []float64{1})) {
		t.Error("all-zero truth should give NaN")
	}
}

func TestARMSE(t *testing.T) {
	truth := []float64{0.5, 0.1}
	est := []float64{0.7, 0.1}
	want := math.Sqrt(0.04 / 2)
	if got := experiments.ARMSE(truth, est); math.Abs(got-want) > 1e-12 {
		t.Errorf("ARMSE = %v, want %v", got, want)
	}
	if !math.IsNaN(experiments.ARMSE(nil, nil)) {
		t.Error("empty ARMSE should be NaN")
	}
}

func TestMeanBias(t *testing.T) {
	truth := []float64{10, 20}
	est := []float64{12, 16}
	if got := experiments.MeanBias(truth, est); got != -1 {
		t.Errorf("MeanBias = %v", got)
	}
	if !math.IsNaN(experiments.MeanBias(nil, nil)) {
		t.Error("empty input should be NaN")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"aape":  func() { experiments.AAPE([]float64{1}, nil) },
		"armse": func() { experiments.ARMSE([]float64{1}, nil) },
		"bias":  func() { experiments.MeanBias([]float64{1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSummarizeBasics(t *testing.T) {
	s, err := experiments.Summarize([]float64{4, 1, 3, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 5 || s.Mean != 3 || s.P50 != 3 || s.Max != 5 {
		t.Errorf("summary %+v", s)
	}
	if s.P90 < 4 || s.P90 > 5 {
		t.Errorf("p90 = %v", s.P90)
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSummarizeRejectsBadInput(t *testing.T) {
	if _, err := experiments.Summarize(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := experiments.Summarize([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
}

func TestSummarizeSingleElement(t *testing.T) {
	s, err := experiments.Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.P50 != 7 || s.P99 != 7 || s.Max != 7 {
		t.Errorf("single-element summary %+v", s)
	}
}

func TestQuantileOrderingProperty(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := experiments.Summarize(xs)
		if err != nil {
			return false
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max &&
			s.Max == sorted[len(sorted)-1] &&
			s.P50 >= sorted[0]
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func TestRelativeErrors(t *testing.T) {
	truth := []float64{10, 0, 20}
	est := []float64{12, 5, 15}
	rel := experiments.RelativeErrors(truth, est)
	if len(rel) != 2 || rel[0] != 0.2 || rel[1] != 0.25 {
		t.Errorf("rel = %v (zero-truth pair must be skipped)", rel)
	}
}

func TestErrorsPanicOnMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"rel": func() { experiments.RelativeErrors([]float64{1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
