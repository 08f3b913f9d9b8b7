package core

import (
	"testing"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/stream"
)

func buildBatchSketch(t *testing.T) *VOS {
	t.Helper()
	v := MustNew(Config{MemoryBits: 1 << 18, SketchBits: 1024, Seed: 4})
	for _, e := range gen.PlantedPair(1, 2, 200, 200, 120, 6) {
		v.Process(e)
	}
	for _, e := range gen.PlantedPair(1, 3, 1, 90, 0, 7) {
		if e.User == 3 { // user 1 already populated above
			v.Process(e)
		}
	}
	return v
}

func TestRecoveredReuse(t *testing.T) {
	v := buildBatchSketch(t)
	r := v.RecoverSketch(1)
	a := v.QueryRecovered(r, 2)
	b := v.QueryRecovered(r, 2)
	if a != b {
		t.Error("repeated QueryRecovered not deterministic")
	}
	// A populated mate, a one-edge user, an absent user, and u itself (the
	// degenerate self estimate).
	for _, w := range []stream.User{2, 3, 4, 1} {
		if got, want := v.QueryRecovered(r, w), v.Query(1, w); got != want {
			t.Errorf("candidate %d: QueryRecovered %+v != Query %+v", w, got, want)
		}
	}
}

func TestRecoverMatchesRecoverBit(t *testing.T) {
	v := buildBatchSketch(t)
	r := v.RecoverSketch(2)
	for j := 0; j < v.K(); j++ {
		if r.bits.Get(uint64(j)) != v.RecoverBit(2, j) {
			t.Fatalf("slot %d differs", j)
		}
	}
}

// A cold read takes its positions from the pooled scratch table and puts
// back the pointer it got: QueryRecovered without the recovered-sketch
// cache allocates nothing, RecoverSketch without a position cache only its
// result (the Recovered, its Bitset and the Bitset's words).
func TestColdReadAllocations(t *testing.T) {
	v := buildBatchSketch(t)
	v.SetRecoveredCacheCapacity(-1)
	r := v.RecoverSketch(1)
	for _, c := range []struct {
		name   string
		budget float64
		read   func()
	}{
		{"QueryRecovered", 0, func() { _ = v.QueryRecovered(r, 2) }},
		{"RecoverSketch", 3, func() { _ = v.RecoverSketch(2) }},
	} {
		if got := testing.AllocsPerRun(200, c.read); got > c.budget {
			t.Errorf("%s: %.0f allocations a call, budget %.0f", c.name, got, c.budget)
		}
	}
}
