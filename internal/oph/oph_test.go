// Package oph_test holds the OPH baseline's tests at the import path they
// have always had; the type lives in internal/similarity.
package oph_test

import (
	"math"
	"testing"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/similarity"
	"github.com/vossketch/vos/internal/stream"
)

func process(s *similarity.OPH, edges []stream.Edge) {
	for _, e := range edges {
		s.Process(e)
	}
}

func TestDensifiedAccuracySparse(t *testing.T) {
	// Sparse regime (size < k) is where densification matters.
	const (
		trials = 30
		k      = 256
		size   = 60
	)
	schemes := map[string]func(*similarity.OPH, stream.User) *similarity.Densified{
		"rotation": (*similarity.OPH).DensifyRotation,
		"improved": (*similarity.OPH).DensifyImproved,
		"optimal":  (*similarity.OPH).DensifyOptimal,
	}
	for name, densify := range schemes {
		for _, wantJ := range []float64{0.3, 0.7} {
			common := gen.PlantedJaccard(size, wantJ)
			trueJ := float64(common) / float64(2*size-common)
			sum := 0.0
			for trial := 0; trial < trials; trial++ {
				s := similarity.NewOPH(k, uint64(trial))
				process(s, gen.PlantedPair(1, 2, size, size, common, int64(trial)))
				da := densify(s, 1)
				db := densify(s, 2)
				sum += da.EstimateJaccard(db)
			}
			avg := sum / trials
			if math.Abs(avg-trueJ) > 0.06 {
				t.Errorf("%s J=%.2f: mean estimate %.3f", name, trueJ, avg)
			}
		}
	}
}

func TestDensifyIdenticalSetsPerfect(t *testing.T) {
	// Identical sets must densify to identical signatures (J = 1) under
	// every scheme — the shared-donor property.
	items := []stream.Item{10, 20, 30}
	s := similarity.NewOPH(64, 9)
	for _, it := range items {
		s.Process(stream.Edge{User: 1, Item: it, Op: stream.Insert})
		s.Process(stream.Edge{User: 2, Item: it, Op: stream.Insert})
	}
	for name, densify := range map[string]func(*similarity.OPH, stream.User) *similarity.Densified{
		"rotation": (*similarity.OPH).DensifyRotation,
		"improved": (*similarity.OPH).DensifyImproved,
		"optimal":  (*similarity.OPH).DensifyOptimal,
	} {
		if got := densify(s, 1).EstimateJaccard(densify(s, 2)); got != 1 {
			t.Errorf("%s: identical sets densified to Ĵ = %v", name, got)
		}
	}
}

func TestDensifyPanics(t *testing.T) {
	s := similarity.NewOPH(16, 1)
	s.Process(stream.Edge{User: 1, Item: 5, Op: stream.Insert})
	for name, fn := range map[string]func(){
		"all empty": func() { s.DensifyRotation(99) },
		"mismatched k": func() {
			other := similarity.NewOPH(8, 1)
			other.Process(stream.Edge{User: 1, Item: 5, Op: stream.Insert})
			s.DensifyRotation(1).EstimateJaccard(other.DensifyRotation(1))
		},
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
