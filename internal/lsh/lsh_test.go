package lsh

import (
	"math"
	"testing"
)

func TestParamsValidate(t *testing.T) {
	if (Params{Bands: 0, Rows: 4}).Validate() == nil {
		t.Error("zero bands accepted")
	}
	if (Params{Bands: 4, Rows: 0}).Validate() == nil {
		t.Error("zero rows accepted")
	}
	p := Params{Bands: 16, Rows: 4}
	if p.Validate() != nil || p.SignatureLen() != 64 {
		t.Errorf("params broken: %+v", p)
	}
}

func TestCollisionProbabilityShape(t *testing.T) {
	p := Params{Bands: 20, Rows: 5}
	if p.CollisionProbability(0) != 0 || p.CollisionProbability(1) != 1 {
		t.Error("endpoints wrong")
	}
	// Monotone increasing.
	prev := -1.0
	for j := 0.0; j <= 1.0; j += 0.05 {
		c := p.CollisionProbability(j)
		if c < prev {
			t.Fatalf("not monotone at J=%.2f", j)
		}
		prev = c
	}
	// S-curve: low similarity nearly never collides, high nearly always.
	if p.CollisionProbability(0.1) > 0.01 {
		t.Errorf("J=0.1 collides with prob %v", p.CollisionProbability(0.1))
	}
	if p.CollisionProbability(0.9) < 0.99 {
		t.Errorf("J=0.9 collides with prob %v", p.CollisionProbability(0.9))
	}
}

func TestThreshold(t *testing.T) {
	p := Params{Bands: 20, Rows: 5}
	// (1/20)^(1/5) ≈ 0.549
	if got := p.Threshold(); math.Abs(got-0.549) > 0.01 {
		t.Errorf("threshold = %v, want ~0.549", got)
	}
	// The collision probability at the threshold should be moderate.
	c := p.CollisionProbability(p.Threshold())
	if c < 0.3 || c > 0.9 {
		t.Errorf("collision at threshold = %v", c)
	}
}

// CollisionProbability returns 1 − (1 − J^r)^b, the probability that a
// pair with Jaccard similarity j collides in at least one band.
func (p Params) CollisionProbability(j float64) float64 {
	if j <= 0 {
		return 0
	}
	if j >= 1 {
		return 1
	}
	pr := 1.0
	for i := 0; i < p.Rows; i++ {
		pr *= j
	}
	q := 1.0
	for i := 0; i < p.Bands; i++ {
		q *= 1 - pr
	}
	return 1 - q
}

// Threshold returns the approximate similarity at the S-curve's steepest
// point, (1/b)^(1/r): pairs above it are likely candidates.
func (p Params) Threshold() float64 {
	// binary search on [0, 1] for t^r = 1/b
	lo, hi := 0.0, 1.0
	target := 1 / float64(p.Bands)
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		pr := 1.0
		for j := 0; j < p.Rows; j++ {
			pr *= mid
		}
		if pr < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
