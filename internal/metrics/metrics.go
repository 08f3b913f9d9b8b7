package metrics

import (
	"fmt"
	"math"
)

// AAPE returns (1/|P|)·Σ |s − ŝ|/|s| over pairs, the paper's metric for
// ŝ. Pairs with true value 0 are skipped (the paper tracks only pairs with
// at least one common item, so s > 0 by construction; the guard keeps the
// metric total and finite on arbitrary inputs). It returns NaN when no
// pair qualifies.
func AAPE(truth, estimate []float64) float64 {
	if len(truth) != len(estimate) {
		panic(fmt.Sprintf("metrics: AAPE length mismatch %d vs %d", len(truth), len(estimate)))
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
		panic(fmt.Sprintf("metrics: ARMSE length mismatch %d vs %d", len(truth), len(estimate)))
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
		panic(fmt.Sprintf("metrics: MeanBias length mismatch %d vs %d", len(truth), len(estimate)))
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

// Point is one checkpoint of a metric over stream time.
type Point struct {
	// T is the stream position (elements processed so far).
	T uint64
	// Value is the metric at T.
	Value float64
}

// Series is a named metric trajectory, one per method per panel in the
// over-time figures.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a checkpoint.
func (s *Series) Add(t uint64, v float64) {
	s.Points = append(s.Points, Point{T: t, Value: v})
}

// Last returns the final checkpoint value, or NaN if empty.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	return s.Points[len(s.Points)-1].Value
}

// Collector gathers several named series over a shared checkpoint clock,
// the shape of the paper's Figures 3(a)/(c).
type Collector struct {
	order []string
	by    map[string]*Series
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{by: make(map[string]*Series)}
}

// Record adds a checkpoint to the named series, creating it on first use.
func (c *Collector) Record(name string, t uint64, v float64) {
	s := c.by[name]
	if s == nil {
		s = &Series{Name: name}
		c.by[name] = s
		c.order = append(c.order, name)
	}
	s.Add(t, v)
}

// Series returns the collected series in first-recorded order.
func (c *Collector) Series() []*Series {
	out := make([]*Series, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.by[name])
	}
	return out
}

// Get returns the named series, or nil.
func (c *Collector) Get(name string) *Series { return c.by[name] }
