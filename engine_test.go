package vos_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/vossketch/vos"
)

// engineTestStream builds a feasible insert+delete stream.
func engineTestStream(n, users int, delFrac float64, seed int64) []vos.Edge {
	rng := rand.New(rand.NewSource(seed))
	type key struct {
		u vos.User
		i vos.Item
	}
	liveList := make([]key, 0, n)
	liveIdx := make(map[key]int, n)
	out := make([]vos.Edge, 0, n)
	for len(out) < n {
		if len(liveList) > 0 && rng.Float64() < delFrac {
			pos := rng.Intn(len(liveList))
			k := liveList[pos]
			last := len(liveList) - 1
			liveList[pos] = liveList[last]
			liveIdx[liveList[pos]] = pos
			liveList = liveList[:last]
			delete(liveIdx, k)
			out = append(out, vos.Edge{User: k.u, Item: k.i, Op: vos.Delete})
			continue
		}
		k := key{vos.User(rng.Intn(users)), vos.Item(rng.Uint64() % 100_000)}
		if _, dup := liveIdx[k]; dup {
			continue
		}
		liveIdx[k] = len(liveList)
		liveList = append(liveList, k)
		out = append(out, vos.Edge{User: k.u, Item: k.i, Op: vos.Insert})
	}
	return out
}

// TestEngineCrashRecoveryParity is the public-API form of the durability
// guarantee, extending the TestEngineAccuracyParity harness across a
// crash: ingest half the planted insert+delete stream into a durable
// engine, hard-stop it (no Flush, no Close), reopen from disk with
// OpenEngine, finish the stream, and assert the estimates — and the
// serialized sketch bytes — are bit-identical to an uninterrupted
// single-sketch run.
func TestEngineCrashRecoveryParity(t *testing.T) {
	cfg := vos.Config{MemoryBits: 1 << 19, SketchBits: 1024, Seed: 13}
	edges := engineTestStream(24_000, 250, 0.3, 6)
	half := len(edges) / 2

	single := vos.MustNew(cfg)
	for _, e := range edges {
		single.Process(e)
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			// DisableLock: the crash is simulated in-process, so the
			// abandoned engine cannot release the directory flock the way
			// a real process death would.
			ecfg := vos.EngineConfig{
				Sketch:     cfg,
				Shards:     shards,
				Durability: &vos.DurabilityConfig{DisableLock: true},
			}

			crashed, err := vos.OpenEngine(dir, ecfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < half; i += 200 {
				end := i + 200
				if end > half {
					end = half
				}
				if err := crashed.ProcessBatch(edges[i:end]); err != nil {
					t.Fatal(err)
				}
			}
			// Hard stop: the engine is abandoned mid-stream. Every
			// acknowledged batch is on disk (SyncEveryBatch default).

			eng, err := vos.OpenEngine(dir, ecfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if err := eng.ProcessBatch(edges[half:]); err != nil {
				t.Fatal(err)
			}
			eng.Flush()
			for u := vos.User(0); u < 30; u++ {
				for v := u + 1; v < 30; v += 5 {
					if got, want := eng.Query(u, v), single.Query(u, v); got != want {
						t.Fatalf("recovered Query(%d,%d) = %+v, single sketch %+v", u, v, got, want)
					}
				}
			}
			got, err := eng.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			want, err := single.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("recovered engine serializes differently from the uninterrupted sketch")
			}
		})
	}
}

// TestEngineCheckpointRestart exercises the public checkpoint workflow: a
// durable engine checkpoints mid-stream, is gracefully closed, and a
// reopened engine resumes with full parity.
func TestEngineCheckpointRestart(t *testing.T) {
	cfg := vos.Config{MemoryBits: 1 << 18, SketchBits: 512, Seed: 29}
	edges := engineTestStream(10_000, 150, 0.25, 8)
	dir := t.TempDir()
	ecfg := vos.EngineConfig{
		Sketch:     cfg,
		Shards:     2,
		Durability: &vos.DurabilityConfig{Sync: vos.SyncEveryN, SyncEveryN: 512},
	}

	eng, err := vos.OpenEngine(dir, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ProcessBatch(edges[:len(edges)/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := eng.ProcessBatch(edges[len(edges)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	single := vos.MustNew(cfg)
	for _, e := range edges {
		single.Process(e)
	}
	reopened, err := vos.OpenEngine(dir, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for u := vos.User(0); u < 20; u++ {
		for v := u + 1; v < 20; v += 3 {
			if got, want := reopened.Query(u, v), single.Query(u, v); got != want {
				t.Fatalf("reopened Query(%d,%d) = %+v, want %+v", u, v, got, want)
			}
		}
	}
	if _, err := vos.MustNewEngine(vos.EngineConfig{Sketch: cfg}).Checkpoint(); err != vos.ErrEngineNoDurability {
		t.Fatalf("Checkpoint on memory-only engine = %v, want ErrEngineNoDurability", err)
	}
}

// TestEngineAccuracyParity is the public-API form of the sharding
// guarantee: a K-shard Engine returns identical estimates to a single
// Sketch over the same insert+delete stream.
func TestEngineAccuracyParity(t *testing.T) {
	cfg := vos.Config{MemoryBits: 1 << 19, SketchBits: 1024, Seed: 13}
	edges := engineTestStream(30_000, 300, 0.3, 4)

	single := vos.MustNew(cfg)
	for _, e := range edges {
		single.Process(e)
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng := vos.MustNewEngine(vos.EngineConfig{Sketch: cfg, Shards: shards})
			defer eng.Close()
			if err := eng.ProcessBatch(edges); err != nil {
				t.Fatal(err)
			}
			eng.Flush()
			for u := vos.User(0); u < 30; u++ {
				for v := u + 1; v < 30; v += 5 {
					if got, want := eng.Query(u, v), single.Query(u, v); got != want {
						t.Fatalf("engine Query(%d,%d) = %+v, single sketch %+v", u, v, got, want)
					}
				}
			}
		})
	}
}

// callerClock is a clock of the caller's own: any type with Now and After is
// an EngineConfig.Clock, so code outside the module needs no package of
// ours to drive the engine's timers. Now reads a time the test moves, and
// each After parks its channel on waits for the test to fire.
type callerClock struct {
	mu    sync.Mutex
	now   time.Time
	waits chan chan time.Time
}

func newCallerClock(t time.Time) *callerClock {
	// One slot: the linger asks for its next wait only once its last fired.
	return &callerClock{now: t, waits: make(chan chan time.Time, 1)}
}

func (c *callerClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *callerClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func (c *callerClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.waits <- ch
	return ch
}

// TestEngineRunsOnCallerClock: a windowed engine's timers follow a clock
// the caller wrote. Firing the linger's parked wait applies an edge left
// below BatchSize without a Flush, and moving Now past a bucket boundary
// rotates the window on the next read, until the first bucket's edge has
// dropped out after Buckets boundaries.
func TestEngineRunsOnCallerClock(t *testing.T) {
	const buckets = 3
	clk := newCallerClock(time.Unix(1000, 0))
	eng := vos.MustNewEngine(vos.EngineConfig{
		Sketch:    vos.Config{MemoryBits: 1 << 16, SketchBits: 256, Seed: 1},
		Shards:    2,
		BatchSize: 1024,
		Clock:     clk,
		Window:    &vos.WindowConfig{Buckets: buckets, BucketDuration: time.Second},
	})
	defer eng.Close()
	if err := eng.Process(vos.Edge{User: 1, Item: 2, Op: vos.Insert}); err != nil {
		t.Fatal(err)
	}
	if n := eng.Cardinality(1); n != 0 {
		t.Fatalf("n = %d before the linger fired, want 0 (the edge pends)", n)
	}
	wait := <-clk.waits
	wait <- clk.Now()
	<-clk.waits // parked again: the linger has handed the edge over
	for deadline := time.Now().Add(10 * time.Second); eng.Cardinality(1) != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the linger's hand-over was never applied")
		}
		time.Sleep(time.Millisecond)
	}

	info, _ := eng.WindowInfo()
	start := info.Start
	for i := 1; i <= buckets; i++ {
		clk.advance(time.Second)
		info, _ := eng.WindowInfo()
		if want := start.Add(time.Duration(i) * time.Second); !info.Start.Equal(want) {
			t.Fatalf("after %d boundaries the window starts at %v, want %v", i, info.Start, want)
		}
		want := int64(1)
		if i == buckets {
			want = 0
		}
		if n := eng.Cardinality(1); n != want {
			t.Fatalf("after %d boundaries n = %d, want %d", i, n, want)
		}
	}
}
