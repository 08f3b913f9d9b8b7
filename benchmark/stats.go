package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1). xs is
// sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeMedian runs fn n times and returns the median duration.
func timeMedian(n int, fn func()) time.Duration {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return time.Duration(median(xs))
}
