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

func TestSparseSetsUseNonEmptyDenominator(t *testing.T) {
	// Few items, many bins: the NIPS'12 estimator must divide by the
	// non-empty bin count, not k, or sparse sets would be crushed to ~0.
	const k = 512
	s := similarity.NewOPH(k, 7)
	items := []stream.Item{1, 2, 3, 4, 5}
	for _, it := range items {
		s.Process(stream.Edge{User: 1, Item: it, Op: stream.Insert})
		s.Process(stream.Edge{User: 2, Item: it, Op: stream.Insert})
	}
	if got := s.EstimateJaccard(1, 2); got != 1 {
		t.Errorf("identical sparse sets: Ĵ = %v, want 1", got)
	}
}

func TestProcessTouchesOneBin(t *testing.T) {
	// O(1) semantics: an insert may change at most one register.
	s := similarity.NewOPH(64, 3)
	s.Process(stream.Edge{User: 1, Item: 100, Op: stream.Insert})
	before, occBefore := s.Signature(1)
	s.Process(stream.Edge{User: 1, Item: 200, Op: stream.Insert})
	after, occAfter := s.Signature(1)
	changed := 0
	for j := range before {
		if before[j] != after[j] || occBefore[j] != occAfter[j] {
			changed++
		}
	}
	if changed > 1 {
		t.Errorf("insert changed %d bins", changed)
	}
}

func TestDeletionEmptiesOnlyOwningBin(t *testing.T) {
	s := similarity.NewOPH(32, 5)
	s.Process(stream.Edge{User: 1, Item: 42, Op: stream.Insert})
	_, occ := s.Signature(1)
	occupied := 0
	for _, o := range occ {
		if o {
			occupied++
		}
	}
	if occupied != 1 {
		t.Fatalf("one insert occupied %d bins", occupied)
	}
	s.Process(stream.Edge{User: 1, Item: 42, Op: stream.Delete})
	_, occ = s.Signature(1)
	for j, o := range occ {
		if o {
			t.Errorf("bin %d still occupied after deleting its only item", j)
		}
	}
}

func TestDeletionBiasExists(t *testing.T) {
	// The §III sampling bias depends on the *history*, not just the
	// final sets: user 1 inserts [100, 400) directly, user 2 inserts
	// [0, 400) and then unsubscribes [0, 100). Both end with the same
	// set, so true J = 1, but each bin of user 2 whose minimum fell in
	// the deleted prefix (≈ 1/4 of bins) is emptied and never refills,
	// capping the estimate well below 1.
	const k = 128
	sum := 0.0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		s := similarity.NewOPH(k, uint64(trial))
		for i := 100; i < 400; i++ {
			s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
		}
		for i := 0; i < 400; i++ {
			s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Insert})
		}
		for i := 0; i < 100; i++ {
			s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Delete})
		}
		sum += s.EstimateJaccard(1, 2)
	}
	avg := sum / trials
	if avg > 0.9 {
		t.Errorf("expected visible deletion bias on identical sets (J=1), estimate %.3f"+
			" (baseline no longer reproduces the paper's flaw)", avg)
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
