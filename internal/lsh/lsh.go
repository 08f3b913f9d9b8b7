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
