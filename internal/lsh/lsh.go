package lsh

import "fmt"

// Params configure the band structure.
type Params struct {
	// Bands is b, the number of bands.
	Bands int
	// Rows is r, the registers per band.
	Rows int
	// Seed drives bucket hashing.
	Seed uint64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Bands <= 0 || p.Rows <= 0 {
		return fmt.Errorf("lsh: bands and rows must be positive, got %d/%d", p.Bands, p.Rows)
	}
	return nil
}

// SignatureLen returns the required MinHash signature length k = b·r.
func (p Params) SignatureLen() int { return p.Bands * p.Rows }

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
