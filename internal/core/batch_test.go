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

func TestQueryManyMatchesQuery(t *testing.T) {
	v := buildBatchSketch(t)
	candidates := []stream.User{2, 3, 4, 1}
	batch := v.QueryMany(1, candidates)
	if len(batch) != len(candidates) {
		t.Fatalf("got %d estimates", len(batch))
	}
	for i, w := range candidates {
		single := v.Query(1, w)
		if batch[i] != single {
			t.Errorf("candidate %d: batch %+v != single %+v", w, batch[i], single)
		}
	}
}

func TestRecoveredReuse(t *testing.T) {
	v := buildBatchSketch(t)
	r := v.RecoverSketch(1)
	if r.User() != 1 {
		t.Errorf("User() = %d", r.User())
	}
	a := v.QueryRecovered(r, 2)
	b := v.QueryRecovered(r, 2)
	if a != b {
		t.Error("repeated QueryRecovered not deterministic")
	}
	if a != v.Query(1, 2) {
		t.Error("QueryRecovered differs from Query")
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

func TestQueryManyEmptyCandidates(t *testing.T) {
	v := buildBatchSketch(t)
	if got := v.QueryMany(1, nil); len(got) != 0 {
		t.Errorf("nil candidates produced %d estimates", len(got))
	}
}

func BenchmarkQueryManyVsLoop(b *testing.B) {
	v := MustNew(Config{MemoryBits: 1 << 20, SketchBits: 6400, Seed: 4})
	for _, e := range gen.PlantedPair(1, 2, 300, 300, 100, 6) {
		v.Process(e)
	}
	candidates := make([]stream.User, 100)
	for i := range candidates {
		candidates[i] = stream.User(i + 2)
	}
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range candidates {
				_ = v.Query(1, w)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = v.QueryMany(1, candidates)
		}
	})
}
