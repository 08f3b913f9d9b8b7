package core

import (
	"math"
	"testing"
)

// fourLogEstimate is the §IV estimator chain as it read with four
// logarithms, ln|1−2α| and ln|1−2β| each taken twice — kept here so that a
// cheaper estimateFrom cannot move a bit unnoticed.
func fourLogEstimate(k, m float64, z int, nu, nv int64, beta float64) Estimate {
	alpha := float64(z) / k
	saturated := false
	absA := math.Abs(1 - 2*alpha)
	if absA < 1/(2*k) {
		absA = 1 / (2 * k)
		saturated = true
	}
	absB := math.Abs(1 - 2*beta)
	if absB < 1/(2*m) {
		absB = 1 / (2 * m)
		saturated = true
	}
	nDelta := -k * (math.Log(absA) - 2*math.Log(absB)) / 2
	if nDelta < 0 {
		nDelta = 0
	}
	common := float64(nu+nv)/2 + k*(math.Log(absA)-2*math.Log(absB))/4
	clamped := common
	if clamped < 0 {
		clamped = 0
	}
	if limit := float64(min(nu, nv)); clamped > limit {
		clamped = limit
	}
	jac := 0.0
	if union := float64(nu+nv) - clamped; union > 0 {
		jac = clamped / union
	}
	if jac < 0 {
		jac = 0
	} else if jac > 1 {
		jac = 1
	}
	return Estimate{
		Common: common, CommonClamped: clamped, Jaccard: jac, SymmetricDifference: nDelta,
		Alpha: alpha, Beta: beta, CardinalityU: nu, CardinalityV: nv, Saturated: saturated,
	}
}

// TestEstimateFromBitIdentical pins estimateFrom to the four-logarithm
// expression bit for bit: every z that matters around the α clamp
// (0, 1, k/2−1, k/2, k/2+1, k−1, k), β from empty through the β clamp at ½
// (where a tiny m makes the clamp wide), and cardinality pairs with zeros.
func TestEstimateFromBitIdentical(t *testing.T) {
	cards := [][2]int64{{0, 0}, {0, 7}, {7, 0}, {1, 1}, {40, 55}, {3000, 2900}, {1 << 20, 12}}
	for _, cfg := range []Config{
		{MemoryBits: 2048000, SketchBits: 6400},
		{MemoryBits: 1 << 16, SketchBits: 256},
		{MemoryBits: 8, SketchBits: 4},
	} {
		v, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		k, m := cfg.SketchBits, float64(cfg.MemoryBits)
		for _, z := range []int{0, 1, k/2 - 1, k / 2, k/2 + 1, k - 1, k} {
			for _, beta := range []float64{0, 0.0575, 0.25, 0.5 - 1/m, 0.5 - 1/(8*m), 0.5, 0.5 + 1/(8*m), 0.75} {
				for _, c := range cards {
					got := v.estimateFrom(z, c[0], c[1], v.loadAt(beta))
					want := fourLogEstimate(float64(k), m, z, c[0], c[1], beta)
					if !sameEstimate(got, want) {
						t.Fatalf("k=%d m=%g z=%d β=%g n=%v:\n got %+v\nwant %+v", k, m, z, beta, c, got, want)
					}
				}
			}
		}
	}
}

// sameEstimate compares every field, the floats by their bits.
func sameEstimate(a, b Estimate) bool {
	for _, p := range [][2]float64{
		{a.Common, b.Common}, {a.CommonClamped, b.CommonClamped}, {a.Jaccard, b.Jaccard},
		{a.SymmetricDifference, b.SymmetricDifference}, {a.Alpha, b.Alpha}, {a.Beta, b.Beta},
	} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return a.CardinalityU == b.CardinalityU && a.CardinalityV == b.CardinalityV && a.Saturated == b.Saturated
}

// TestLogAlphaTable pins the table estimateFrom reads ln|1−2α| from to the
// expression it replaces, for every z a sketch of k slots can count, and
// the clamp to the one z where estimateFrom reports it: 2z = k.
func TestLogAlphaTable(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 63, 64, 1600, 6400} {
		v := MustNew(Config{MemoryBits: 1 << 16, SketchBits: k})
		if len(v.lnA.ln) != k+1 {
			t.Fatalf("k=%d: %d entries, want %d", k, len(v.lnA.ln), k+1)
		}
		kf := float64(k)
		for z := 0; z <= k; z++ {
			abs := math.Abs(1 - 2*(float64(z)/kf))
			if clamped := abs < 1/(2*kf); clamped != (2*z == k) {
				t.Fatalf("k=%d z=%d: clamp %v, want it exactly where 2z = k", k, z, clamped)
			}
			if want := math.Log(max(abs, 1/(2*kf))); math.Float64bits(v.lnA.ln[z]) != math.Float64bits(want) {
				t.Fatalf("k=%d z=%d: table %v, want %v", k, z, v.lnA.ln[z], want)
			}
		}
		if w := MustNew(Config{MemoryBits: 1 << 20, SketchBits: k, Seed: 5}); w.lnA != v.lnA {
			t.Errorf("k=%d: two live sketches hold two tables", k)
		}
	}
}
