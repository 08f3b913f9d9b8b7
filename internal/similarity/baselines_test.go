package similarity_test

// The baselines' bad-k and unknown-user checks, one test per method each.

import (
	"testing"

	"github.com/vossketch/vos/internal/similarity"
)

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
