package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/wal"
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

	sk, err := dumpWAL(io.Discard, dir, cfg)
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
	sk, err = dumpWAL(io.Discard, empty, cfg)
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

			sk, err := dumpWAL(io.Discard, dir, cfg)
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

// TestRunRebuildsCheckpointlessWAL: a daemon that stops before its first
// checkpoint leaves only a WAL, and run rebuilds it from the sketch identity
// flags. With vosd's defaults, or vosd's -hash-family, the dump answers
// -query as the engine did.
func TestRunRebuildsCheckpointlessWAL(t *testing.T) {
	var edges []vos.Edge
	for u := vos.User(3); u < 203; u++ {
		for i := 0; i < 40; i++ {
			edges = append(edges, vos.Edge{User: u, Item: vos.Item(uint64(u)<<20 | uint64(i)), Op: vos.Insert})
		}
	}
	// Users 1 and 2 share 150 of their 450 items.
	for i := 0; i < 300; i++ {
		edges = append(edges,
			vos.Edge{User: 1, Item: vos.Item(1<<40 + uint64(i)), Op: vos.Insert},
			vos.Edge{User: 2, Item: vos.Item(1<<40 + 150 + uint64(i)), Op: vos.Insert})
	}
	for _, tc := range []struct {
		name   string
		family vos.HashFamily
		args   []string
	}{
		{"classic defaults", vos.FamilyClassic, nil},
		{"fast", vos.FamilyFast, []string{"-hash-family", "fast"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// vosd's defaults but the family.
			cfg := vos.Config{MemoryBits: 1 << 22, SketchBits: 4096, Seed: 1, Family: tc.family}
			eng, err := vos.OpenEngine(dir, vos.EngineConfig{
				Sketch: cfg,
				Shards: 2,
				// Abandoned below without Close, whose final checkpoint
				// would leave the directory with one.
				Durability: &vos.DurabilityConfig{DisableLock: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.ProcessBatch(edges); err != nil {
				t.Fatal(err)
			}
			eng.Flush()
			est := eng.Query(1, 2)
			if _, _, found, err := wal.LatestCheckpoint(dir); err != nil || found {
				t.Fatalf("the directory has a checkpoint (%v, %v)", found, err)
			}

			var out strings.Builder
			if err := run(append([]string{"-wal", dir, "-query", "1,2"}, tc.args...), &out); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				fmt.Sprintf("  common items ŝ:    %.2f (clamped %.2f)\n", est.Common, est.CommonClamped),
				fmt.Sprintf("  jaccard Ĵ:         %.4f\n", est.Jaccard),
			} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q; the engine answered %+v:\n%s", want, est, out.String())
				}
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
