package vos_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/vossketch/vos"
)

// ingestThenScribble feeds stream to svc in calls of uneven length — so
// batches are carved mid-slice, topped up and left as residue — handing each
// call a scratch copy that it fills with garbage the moment Ingest returns.
// A service that kept any part of the slice (SimilarityService.Ingest says
// it must not) then sketches the garbage instead of the stream.
func ingestThenScribble(t *testing.T, svc vos.SimilarityService, stream []vos.Edge) {
	t.Helper()
	ctx := context.Background()
	scratch := make([]vos.Edge, 0, 1500)
	for off, step := 0, 1; off < len(stream); step = step*3%1499 + 1 {
		call := append(scratch[:0], stream[off:min(off+step, len(stream))]...)
		off += len(call)
		if err := svc.Ingest(ctx, call); err != nil {
			t.Fatal(err)
		}
		for i := range call {
			call[i] = vos.Edge{User: 0xdead0000 + vos.User(i), Item: 0xbeef, Op: vos.Delete}
		}
	}
}

// TestIngestDoesNotKeepTheSlice runs the in-process implementations of
// SimilarityService through ingest-then-scribble and compares what they
// hold with one sketch fed the logical stream. (Packages client and
// internal/cluster do the same for theirs, and package server for the
// pooled slice it hands a service.)
func TestIngestDoesNotKeepTheSlice(t *testing.T) {
	cfg := serviceSketchConfig()
	stream := engineTestStream(20_000, 300, 0.25, 17)
	single := vos.MustNew(cfg)
	single.ProcessBatch(stream)
	want, err := single.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	engine := func(ecfg vos.EngineConfig, dir string) func(*testing.T) (vos.SimilarityService, func() ([]byte, error)) {
		return func(t *testing.T) (vos.SimilarityService, func() ([]byte, error)) {
			ecfg.Sketch = cfg
			ecfg.BatchSize = 64 // several batches to a call, and calls that end mid-batch
			var eng *vos.Engine
			var err error
			if dir != "" {
				eng, err = vos.OpenEngine(dir, ecfg)
			} else {
				eng, err = vos.NewEngine(ecfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			return vos.NewEngineService(eng), eng.MarshalBinary // flushes first
		}
	}
	frozen := time.Unix(1_700_000_000, 0)
	cases := map[string]func(*testing.T) (vos.SimilarityService, func() ([]byte, error)){
		"engine/1 shard":  engine(vos.EngineConfig{Shards: 1}, ""),
		"engine/2 shards": engine(vos.EngineConfig{Shards: 2}, ""),
		"engine/durable": engine(vos.EngineConfig{Shards: 2,
			Durability: &vos.DurabilityConfig{Sync: vos.SyncOff}}, t.TempDir()),
		"engine/windowed": engine(vos.EngineConfig{Shards: 2, Window: &vos.WindowConfig{
			Buckets: 3, BucketDuration: time.Hour, Now: func() time.Time { return frozen }}}, ""),
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			svc, export := build(t)
			ingestThenScribble(t, svc, stream)
			got, err := export()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("the service's state is not the stream's: it read the slice after Ingest returned")
			}
		})
	}
}
