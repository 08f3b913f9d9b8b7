// Package metrics_test holds the tests of the paper's accuracy metrics at the
// import path they have always had; the functions live with the experiments
// that print them, internal/experiments.
package metrics_test

import (
	"math"
	"testing"

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
