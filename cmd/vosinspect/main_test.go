package main

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vossketch/vos"
)

// TestDumpWALRecoversEngineState: dumpWAL on a crashed engine's directory
// reconstructs the same state engine recovery would — checkpoint plus
// replayed WAL suffix — without mutating the directory.
func TestDumpWALRecoversEngineState(t *testing.T) {
	dir := t.TempDir()
	cfg := vos.Config{MemoryBits: 1 << 16, SketchBits: 256, Seed: 5}
	// DisableLock: the engine is abandoned in-process below; dumpWAL
	// itself is read-only and takes no lock.
	eng, err := vos.OpenEngine(dir, vos.EngineConfig{
		Sketch:     cfg,
		Shards:     2,
		Durability: &vos.DurabilityConfig{DisableLock: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	single := vos.MustNew(cfg)
	var edges []vos.Edge
	for i := 0; i < 400; i++ {
		e := vos.Edge{User: vos.User(i % 7), Item: vos.Item(i), Op: vos.Insert}
		edges = append(edges, e)
		single.Process(e)
	}
	if err := eng.ProcessBatch(edges[:200]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.ProcessBatch(edges[200:]); err != nil {
		t.Fatal(err)
	}
	// Hard stop: no Close, so the suffix lives only in the WAL.

	sk, err := dumpWAL(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sk.Stats(), single.Stats(); got != want {
		t.Fatalf("recovered stats %+v, want %+v", got, want)
	}
	if got, want := sk.Query(1, 2), single.Query(1, 2); got != want {
		t.Fatalf("recovered Query(1,2) = %+v, want %+v", got, want)
	}

	// No checkpoint and no WAL: falls back to the provided config.
	empty := t.TempDir()
	sk, err = dumpWAL(empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Stats().Users != 0 {
		t.Fatalf("empty dir recovered %d users, want 0", sk.Stats().Users)
	}
}

// TestDumpWALReadsWindowedCheckpoint: a windowed engine checkpoints its
// bucket ring, not a plain sketch; dumpWAL reads that ring and replays the
// WAL suffix into its merged view, so -query answers as the engine did.
func TestDumpWALReadsWindowedCheckpoint(t *testing.T) {
	cfg := vos.Config{MemoryBits: 1 << 16, SketchBits: 256, Seed: 5}
	edges := make([]vos.Edge, 1100)
	for i := range edges {
		edges[i] = vos.Edge{User: vos.User(i % 11), Item: vos.Item(i % 300), Op: vos.Insert}
	}
	for _, tc := range []struct {
		name  string
		crash bool // abandon the engine with a WAL suffix past the checkpoint
	}{{"checkpoint only", false}, {"wal suffix", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var clock atomic.Int64
			clock.Store(1_700_000_000)
			eng, err := vos.OpenEngine(dir, vos.EngineConfig{
				Sketch: cfg,
				Shards: 2,
				Window: &vos.WindowConfig{Buckets: 4, BucketDuration: time.Hour,
					Now: func() time.Time { return time.Unix(clock.Load(), 0) }},
				// The crash case abandons the engine in-process.
				Durability: &vos.DurabilityConfig{DisableLock: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			cut := len(edges)
			if tc.crash {
				cut = 800
			}
			if err := eng.ProcessBatch(edges[:500]); err != nil {
				t.Fatal(err)
			}
			clock.Add(3600) // a second bucket: the checkpoint holds two live ones
			if err := eng.ProcessBatch(edges[500:cut]); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := eng.ProcessBatch(edges[cut:]); err != nil {
				t.Fatal(err)
			}
			want, err := eng.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			pairs := [][2]vos.User{{1, 2}, {3, 3 + 11}, {0, 10}}
			answers := make([]vos.Estimate, len(pairs))
			for i, p := range pairs {
				answers[i] = eng.Query(p[0], p[1])
			}
			if !tc.crash {
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
			}

			sk, err := dumpWAL(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pairs {
				if got := sk.Query(p[0], p[1]); got != answers[i] {
					t.Fatalf("Query(%d,%d) = %+v, the engine answered %+v", p[0], p[1], got, answers[i])
				}
			}
			got, err := sk.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("recovered sketch differs from the engine's merged state")
			}
		})
	}
}

func TestParsePair(t *testing.T) {
	u, v, err := parsePair("17, 42")
	if err != nil || u != 17 || v != 42 {
		t.Errorf("parsePair = %d, %d, %v", u, v, err)
	}
	for _, bad := range []string{"", "1", "1,2,3", "x,2", "1,y"} {
		if _, _, err := parsePair(bad); err == nil {
			t.Errorf("parsePair(%q) accepted", bad)
		}
	}
}
