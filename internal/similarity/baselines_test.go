package similarity_test

// The baselines' bad-k, unknown-user, static-accuracy and common-items
// checks, one test per method each.

import (
	"math"
	"testing"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/similarity"
	"github.com/vossketch/vos/internal/stream"
)

func process(s similarity.Estimator, edges []stream.Edge) {
	for _, e := range edges {
		s.Process(e)
	}
}

func TestMinHashNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 should panic")
		}
	}()
	similarity.NewMinHash(0, 1)
}

func TestMinHashEstimateUnknownUsers(t *testing.T) {
	s := similarity.NewMinHash(8, 1)
	if s.EstimateJaccard(5, 6) != 0 {
		t.Error("unknown users should estimate 0")
	}
}

func TestMinHashStaticJaccardAccuracy(t *testing.T) {
	// Insertion-only streams: MinHash is unbiased. Average over seeds.
	const (
		trials = 25
		k      = 256
		size   = 400
	)
	for _, wantJ := range []float64{0.1, 0.5, 0.9} {
		common := gen.PlantedJaccard(size, wantJ)
		trueJ := float64(common) / float64(2*size-common)
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			s := similarity.NewMinHash(k, uint64(trial))
			process(s, gen.PlantedPair(1, 2, size, size, common, int64(trial)))
			sum += s.EstimateJaccard(1, 2)
		}
		avg := sum / trials
		if math.Abs(avg-trueJ) > 0.04 {
			t.Errorf("J=%.2f: mean estimate %.3f", trueJ, avg)
		}
	}
}

func TestMinHashCommonItemsIdentity(t *testing.T) {
	const size, common = 300, 150
	s := similarity.NewMinHash(512, 3)
	process(s, gen.PlantedPair(1, 2, size, size, common, 5))
	est := s.EstimateCommonItems(1, 2)
	if math.Abs(est-common)/common > 0.25 {
		t.Errorf("ŝ = %.1f, want ~%d", est, common)
	}
	if s.Cardinality(1) != size || s.Cardinality(2) != size {
		t.Error("cardinality tracking wrong")
	}
}

func TestOPHNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 should panic")
		}
	}()
	similarity.NewOPH(0, 1)
}

func TestOPHEstimateUnknownUsers(t *testing.T) {
	s := similarity.NewOPH(8, 1)
	if s.EstimateJaccard(5, 6) != 0 {
		t.Error("unknown users should estimate 0")
	}
	if s.EstimateCommonItems(5, 6) != 0 {
		t.Error("unknown users common should be 0")
	}
}

func TestOPHStaticJaccardAccuracy(t *testing.T) {
	const (
		trials = 25
		k      = 256
		size   = 500 // > k so most bins are occupied
	)
	for _, wantJ := range []float64{0.1, 0.5, 0.9} {
		common := gen.PlantedJaccard(size, wantJ)
		trueJ := float64(common) / float64(2*size-common)
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			s := similarity.NewOPH(k, uint64(trial))
			process(s, gen.PlantedPair(1, 2, size, size, common, int64(trial)))
			sum += s.EstimateJaccard(1, 2)
		}
		avg := sum / trials
		if math.Abs(avg-trueJ) > 0.05 {
			t.Errorf("J=%.2f: mean estimate %.3f", trueJ, avg)
		}
	}
}

func TestOPHCommonItemsIdentity(t *testing.T) {
	const size, common = 600, 300
	s := similarity.NewOPH(256, 3)
	process(s, gen.PlantedPair(1, 2, size, size, common, 5))
	est := s.EstimateCommonItems(1, 2)
	if math.Abs(est-common)/common > 0.25 {
		t.Errorf("ŝ = %.1f, want ~%d", est, common)
	}
}

func TestRPNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 should panic")
		}
	}()
	similarity.NewRP(0, 1)
}

func TestRPEstimateUnknownUsers(t *testing.T) {
	s := similarity.NewRP(4, 1)
	if s.EstimateCommonItems(5, 6) != 0 || s.EstimateJaccard(5, 6) != 0 {
		t.Error("unknown users should estimate 0")
	}
}
