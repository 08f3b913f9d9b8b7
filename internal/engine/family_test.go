package engine

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/clock"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/internal/wal"
)

// fastTestConfig is testConfig under the fast hash family.
func fastTestConfig() core.Config {
	cfg := testConfig()
	cfg.Family = hashing.KindFast
	return cfg
}

// TestEngineFastFamilyParity: a sharded engine under the fast family must
// stay bit-identical to a single fast-family sketch over the same stream —
// the same exact-merge guarantee the classic family has.
func TestEngineFastFamilyParity(t *testing.T) {
	cfg := fastTestConfig()
	edges := feasibleStream(10_000, 120, 0.25, 13)
	single := core.MustNew(cfg)
	for _, ed := range edges {
		single.Process(ed)
	}
	e := MustNew(Config{Sketch: cfg, Shards: 3})
	defer e.Close()
	if err := e.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	assertParity(t, e, single, 40)
	if got := e.Stats().Family; got != hashing.KindFast {
		t.Errorf("engine Stats().Family = %v, want fast", got)
	}
	got, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fast-family engine serializes differently from the single sketch")
	}
}

// TestOpenRejectsFamilyMismatch: a checkpoint written under one hash
// family must refuse to load into an engine configured for the other, with
// the typed core.ErrFamilyMismatch — silently reinterpreting positions
// would XOR desynchronized state.
func TestOpenRejectsFamilyMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 2)
	cfg.Sketch.Family = hashing.KindFast
	e := MustOpen(cfg)
	if err := e.ProcessBatch(feasibleStream(500, 20, 0.2, 47)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil { // Close checkpoints when durable
		t.Fatal(err)
	}
	bad := durableConfig(dir, 2) // classic family
	_, err := Open(bad)
	if err == nil {
		t.Fatal("Open loaded a fast-family checkpoint into a classic engine")
	}
	if !errors.Is(err, core.ErrFamilyMismatch) {
		t.Fatalf("Open error = %v, want core.ErrFamilyMismatch in the chain", err)
	}
	// The matching family still opens.
	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsFamilyMismatchWindowed is the windowed-checkpoint variant
// of TestOpenRejectsFamilyMismatch.
func TestOpenRejectsFamilyMismatchWindowed(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewManual(time.Unix(100, 0))
	cfg := windowConfig(2, 4, clk)
	cfg.Sketch.Family = hashing.KindFast
	cfg.Durability = &DurabilityConfig{Dir: dir, Sync: wal.SyncEveryBatch, DisableLock: true}
	e := MustOpen(cfg)
	if err := e.ProcessBatch(feasibleStream(300, 20, 0.2, 49)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	bad := windowConfig(2, 4, clk)
	bad.Durability = &DurabilityConfig{Dir: dir, Sync: wal.SyncEveryBatch, DisableLock: true}
	_, err := Open(bad)
	if err == nil {
		t.Fatal("Open loaded a fast-family windowed checkpoint into a classic engine")
	}
	if !errors.Is(err, core.ErrFamilyMismatch) {
		t.Fatalf("Open error = %v, want core.ErrFamilyMismatch in the chain", err)
	}
}

// TestTopKApproxProbeReuse pins the repeated probe: probing the same user
// again on an unchanged snapshot returns identical results, after a write
// every estimate a probe returns equals Query, and ANNStats.ProbeReuses
// stays 0 throughout — no probe is answered from a memo.
func TestTopKApproxProbeReuse(t *testing.T) {
	const mates = 8
	edges, _ := plantedClusterEdges(mates, 200, 180, 100, 4)
	e, err := New(annConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	probe := func(u stream.User) []core.TopKResult {
		t.Helper()
		res, err := e.TopKApprox(u, 5)
		if err != nil {
			t.Fatal(err)
		}
		st, ok := e.ANNStats()
		if !ok {
			t.Fatal("ANNStats not ok")
		}
		if st.ProbeReuses != 0 {
			t.Fatalf("ProbeReuses = %d, want 0", st.ProbeReuses)
		}
		return res
	}

	first, second := probe(0), probe(0)
	if len(first) != len(second) {
		t.Fatalf("repeated probe: %d results vs %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("repeated probe rank %d differs: %+v vs %+v", i, second[i], first[i])
		}
	}
	probe(1)

	// A write moves the snapshot; results must be fresh — no pre-write
	// candidate or estimate may come back.
	if err := e.Process(stream.Edge{User: 0, Item: 1 << 40, Op: stream.Insert}); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	for _, r := range probe(0) {
		if q := e.Query(0, r.User); q != r.Estimate {
			t.Fatalf("post-write estimate for %d differs from Query: %+v vs %+v", r.User, r.Estimate, q)
		}
	}
}
