package metrics

import (
	"math"
	"testing"
)

func TestAAPE(t *testing.T) {
	truth := []float64{100, 200, 50}
	est := []float64{110, 180, 50}
	// |10|/100 + |20|/200 + 0 = 0.1 + 0.1 + 0 over 3 = 0.0667
	want := (0.1 + 0.1 + 0) / 3
	if got := AAPE(truth, est); math.Abs(got-want) > 1e-12 {
		t.Errorf("AAPE = %v, want %v", got, want)
	}
}

func TestAAPESkipsZeroTruth(t *testing.T) {
	got := AAPE([]float64{0, 10}, []float64{5, 20})
	if got != 1.0 {
		t.Errorf("AAPE = %v, want 1.0 (zero-truth pair skipped)", got)
	}
	if !math.IsNaN(AAPE([]float64{0}, []float64{1})) {
		t.Error("all-zero truth should give NaN")
	}
}

func TestARMSE(t *testing.T) {
	truth := []float64{0.5, 0.1}
	est := []float64{0.7, 0.1}
	want := math.Sqrt(0.04 / 2)
	if got := ARMSE(truth, est); math.Abs(got-want) > 1e-12 {
		t.Errorf("ARMSE = %v, want %v", got, want)
	}
	if !math.IsNaN(ARMSE(nil, nil)) {
		t.Error("empty ARMSE should be NaN")
	}
}

func TestMeanBias(t *testing.T) {
	truth := []float64{10, 20}
	est := []float64{12, 16}
	if got := MeanBias(truth, est); got != -1 {
		t.Errorf("MeanBias = %v", got)
	}
	if !math.IsNaN(MeanBias(nil, nil)) {
		t.Error("empty input should be NaN")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"aape":  func() { AAPE([]float64{1}, nil) },
		"armse": func() { ARMSE([]float64{1}, nil) },
		"bias":  func() { MeanBias([]float64{1}, nil) },
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

func TestSeries(t *testing.T) {
	var s Series
	if !math.IsNaN(s.Last()) {
		t.Error("empty series Last should be NaN")
	}
	s.Add(10, 0.5)
	s.Add(20, 0.25)
	if s.Last() != 0.25 || len(s.Points) != 2 {
		t.Errorf("series state: %+v", s)
	}
	if s.Points[0].T != 10 {
		t.Errorf("first point T = %d", s.Points[0].T)
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.Record("VOS", 1, 0.1)
	c.Record("MinHash", 1, 0.2)
	c.Record("VOS", 2, 0.05)
	all := c.Series()
	if len(all) != 2 || all[0].Name != "VOS" || all[1].Name != "MinHash" {
		t.Fatalf("series order: %v", all)
	}
	if got := c.Get("VOS").Last(); got != 0.05 {
		t.Errorf("VOS last = %v", got)
	}
	if c.Get("nope") != nil {
		t.Error("missing series should be nil")
	}
}
