package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/clock"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/internal/wal"
)

// MustOpen is Open for static configurations; it panics on error.
func MustOpen(cfg Config) *Engine {
	e, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// durableConfig builds a durable engine config over dir with small WAL
// segments so rotation and truncation paths are exercised. The directory
// flock is disabled: these tests simulate crashes by abandoning an engine
// in-process, which cannot release the lock the way a real process death
// does.
func durableConfig(dir string, shards int) Config {
	return Config{
		Sketch: testConfig(),
		Shards: shards,
		Durability: &DurabilityConfig{
			Dir:          dir,
			Sync:         wal.SyncEveryBatch,
			SegmentBytes: 16 << 10,
			DisableLock:  true,
		},
	}
}

// TestSecondOpenOnLiveDirFails: with locking on (the default), a second
// engine on the same directory must fail fast rather than corrupt the WAL.
func TestSecondOpenOnLiveDirFails(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("directory flock is a no-op off unix")
	}
	dir := t.TempDir()
	cfg := durableConfig(dir, 1)
	cfg.Durability.DisableLock = false
	e := MustOpen(cfg)
	if _, err := Open(cfg); err == nil {
		t.Fatal("second Open on a live directory succeeded")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Released on Close: the directory is reusable.
	e2 := MustOpen(cfg)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}

// assertParity checks that the engine's estimates, cardinalities and merged
// stats are bit-identical to the single reference sketch.
func assertParity(t *testing.T, e *Engine, single *core.VOS, users int) {
	t.Helper()
	if st, est := single.Stats(), e.Stats(); st != est {
		t.Fatalf("merged stats diverge: single %+v vs engine %+v", st, est)
	}
	for u := stream.User(0); u < stream.User(users); u++ {
		for v := u + 1; v < stream.User(users); v += 7 {
			if got, want := e.Query(u, v), single.Query(u, v); got != want {
				t.Fatalf("Query(%d,%d) = %+v, single sketch %+v", u, v, got, want)
			}
		}
		if got, want := e.Cardinality(u), single.Cardinality(u); got != want {
			t.Fatalf("Cardinality(%d) = %d, want %d", u, got, want)
		}
	}
}

// TestCrashRecoveryParity is the kill-and-recover guarantee: ingest half a
// planted insert+delete stream, hard-stop the engine mid-stream (no Flush,
// no Close — the process just "dies"), reopen from disk, finish the
// stream, and verify the recovered engine's estimates are bit-identical to
// an uninterrupted single-sketch run over the whole stream.
func TestCrashRecoveryParity(t *testing.T) {
	cfg := testConfig()
	edges := feasibleStream(16_000, 120, 0.3, 17)
	half := len(edges) / 2

	single := core.MustNew(cfg)
	for _, ed := range edges {
		single.Process(ed)
	}

	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()

			// Phase 1: ingest the first half, then crash. SyncEveryBatch
			// means every acknowledged edge is on disk; the engine is
			// abandoned with queues possibly non-empty and no checkpoint.
			crashed := MustOpen(durableConfig(dir, shards))
			for i := 0; i < half; i += 100 {
				end := i + 100
				if end > half {
					end = half
				}
				if err := crashed.ProcessBatch(edges[i:end]); err != nil {
					t.Fatal(err)
				}
			}
			// No Flush, no Close: hard stop.

			// Phase 2: recover and finish the stream.
			e := MustOpen(durableConfig(dir, shards))
			defer e.Close()
			if err := e.ProcessBatch(edges[half:]); err != nil {
				t.Fatal(err)
			}
			e.Flush()
			assertParity(t, e, single, 40)

			// The serialized recovered engine is byte-identical to the
			// uninterrupted sketch, the strongest form of parity.
			got, err := e.MarshalBinary()
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

// TestCheckpointThenCrashReplaysOnlySuffix: a checkpoint mid-stream plus a
// crash leaves a base sketch and a WAL suffix; recovery must stitch them
// back together exactly, and the truncated prefix segments must be gone.
func TestCheckpointThenCrashReplaysOnlySuffix(t *testing.T) {
	cfg := testConfig()
	edges := feasibleStream(12_000, 100, 0.25, 23)
	dir := t.TempDir()

	single := core.MustNew(cfg)
	for _, ed := range edges {
		single.Process(ed)
	}

	crashed := MustOpen(durableConfig(dir, 2))
	third := len(edges) / 3
	if err := crashed.ProcessBatch(edges[:third]); err != nil {
		t.Fatal(err)
	}
	pos, err := crashed.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if pos != uint64(third) {
		t.Fatalf("checkpoint position %d, want %d", pos, third)
	}
	if err := crashed.ProcessBatch(edges[third : 2*third]); err != nil {
		t.Fatal(err)
	}
	// Hard stop (no Close).

	// The checkpoint must have truncated fully covered segments.
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0] == 0 {
		t.Fatalf("WAL prefix not truncated after checkpoint: segments %v", segs)
	}

	e := MustOpen(durableConfig(dir, 2))
	defer e.Close()
	if err := e.ProcessBatch(edges[2*third:]); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	assertParity(t, e, single, 40)
}

// TestFallbackToOlderCheckpoint: the newest checkpoint file bit-rots; the
// retained predecessor plus its surviving WAL suffix must recover the full
// state — this is what the keep-two retention and the keep-the-older-
// checkpoint's-segments truncation policy exist for.
func TestFallbackToOlderCheckpoint(t *testing.T) {
	cfg := testConfig()
	edges := feasibleStream(9_000, 90, 0.25, 53)
	third := len(edges) / 3
	dir := t.TempDir()

	e := MustOpen(durableConfig(dir, 2))
	if err := e.ProcessBatch(edges[:third]); err != nil {
		t.Fatal(err)
	}
	p1, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ProcessBatch(edges[third : 2*third]); err != nil {
		t.Fatal(err)
	}
	p2, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ProcessBatch(edges[2*third:]); err != nil {
		t.Fatal(err)
	}
	// Hard stop, then rot the newest checkpoint.
	path := wal.CheckpointPath(dir, p2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The WAL suffix past p1 must still exist for the fallback to cover.
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0] > p1 {
		t.Fatalf("WAL suffix of the older checkpoint was truncated: segments %v, p1=%d", segs, p1)
	}

	recovered := MustOpen(durableConfig(dir, 2))
	defer recovered.Close()
	single := core.MustNew(cfg)
	for _, ed := range edges {
		single.Process(ed)
	}
	assertParity(t, recovered, single, 30)
}

// TestCloseCheckpointsAndReopensCold: graceful Close writes a final
// checkpoint, so the next Open replays nothing and still matches.
func TestCloseCheckpointsAndReopensCold(t *testing.T) {
	cfg := testConfig()
	edges := feasibleStream(8_000, 80, 0.25, 31)
	dir := t.TempDir()

	single := core.MustNew(cfg)
	for _, ed := range edges {
		single.Process(ed)
	}

	first := MustOpen(durableConfig(dir, 4))
	if err := first.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	pos, _, found, err := wal.LatestCheckpoint(dir)
	if err != nil || !found {
		t.Fatalf("no checkpoint after Close: found=%v err=%v", found, err)
	}
	if pos != uint64(len(edges)) {
		t.Fatalf("final checkpoint at %d, want %d", pos, len(edges))
	}

	e := MustOpen(durableConfig(dir, 4))
	defer e.Close()
	assertParity(t, e, single, 30)

	// Ingest continues seamlessly after a cold reopen.
	extra := stream.Edge{User: 1, Item: 999_999, Op: stream.Insert}
	if err := e.Process(extra); err != nil {
		t.Fatal(err)
	}
	single.Process(extra)
	e.Flush()
	if got, want := e.Cardinality(1), single.Cardinality(1); got != want {
		t.Fatalf("post-reopen Cardinality = %d, want %d", got, want)
	}
}

// TestCheckpointConcurrentWithProducers checkpoints repeatedly while
// producers ingest: no batch may straddle a checkpoint, so the final state
// must still be bit-identical to the reference.
func TestCheckpointConcurrentWithProducers(t *testing.T) {
	cfg := testConfig()
	edges := feasibleStream(20_000, 120, 0.25, 37)
	dir := t.TempDir()
	e := MustOpen(durableConfig(dir, 3))

	const producers = 4
	per := len(edges) / producers
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(chunk []stream.Edge) {
			defer wg.Done()
			for len(chunk) > 0 {
				n := 64
				if n > len(chunk) {
					n = len(chunk)
				}
				if err := e.ProcessBatch(chunk[:n]); err != nil {
					t.Error(err)
					return
				}
				chunk = chunk[n:]
			}
		}(edges[p*per : (p+1)*per])
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if _, err := e.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	single := core.MustNew(cfg)
	for _, ed := range edges[:per*producers] {
		single.Process(ed)
	}
	recovered := MustOpen(durableConfig(dir, 3))
	defer recovered.Close()
	assertParity(t, recovered, single, 30)
}

// TestMarshalBinaryNeverStale pins the flush-then-merge contract: with a
// reader still on the view that predates them, MarshalBinary covers every
// acknowledged write, and the reader's view stays what it was.
func TestMarshalBinaryNeverStale(t *testing.T) {
	cfg := testConfig()
	e := MustNew(Config{Sketch: cfg, Shards: 2})
	defer e.Close()
	edges := feasibleStream(2_000, 40, 0.2, 41)
	half := len(edges) / 2

	if err := e.ProcessBatch(edges[:half]); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	stale := e.acquire() // a reader that stays on the view of the first half
	defer stale.Release()
	before := stale.Sk.Stats()

	if err := e.ProcessBatch(edges[half:]); err != nil {
		t.Fatal(err)
	}
	// No explicit Flush: MarshalBinary must flush and re-merge itself.
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.UnmarshalVOS(data)
	if err != nil {
		t.Fatal(err)
	}
	single := core.MustNew(cfg)
	for _, ed := range edges {
		single.Process(ed)
	}
	if restored.Stats() != single.Stats() {
		t.Fatalf("marshal is behind acknowledged writes: %+v vs %+v", restored.Stats(), single.Stats())
	}
	if stale.Sk.Stats() != before {
		t.Fatal("the view moved under its reader")
	}
	if got, want := restored.Query(3, 9), single.Query(3, 9); got != want {
		t.Fatalf("restored Query = %+v, want %+v", got, want)
	}
}

// TestOpenRejectsMismatchedCheckpoint: recovering with a different sketch
// config must fail loudly, not silently merge incompatible state.
func TestOpenRejectsMismatchedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := MustOpen(durableConfig(dir, 2))
	if err := e.ProcessBatch(feasibleStream(500, 20, 0.2, 43)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	bad := durableConfig(dir, 2)
	bad.Sketch.SketchBits *= 2
	if _, err := Open(bad); err == nil {
		t.Fatal("Open accepted a checkpoint from a different sketch config")
	}
}

// TestOpenRequiresDir: Open without a durability directory is an error,
// and Checkpoint on a memory-only engine reports ErrNoDurability.
func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Config{Sketch: testConfig()}); err != ErrNoDurability {
		t.Fatalf("Open without dir = %v, want ErrNoDurability", err)
	}
	e := MustNew(Config{Sketch: testConfig(), Shards: 1})
	defer e.Close()
	if _, err := e.Checkpoint(); err != ErrNoDurability {
		t.Fatalf("Checkpoint on memory-only engine = %v, want ErrNoDurability", err)
	}
}

// TestNewWithDurabilityDelegatesToOpen: New on a durability config behaves
// like Open, including recovery of prior state.
func TestNewWithDurabilityDelegatesToOpen(t *testing.T) {
	dir := t.TempDir()
	e, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Process(stream.Edge{User: 5, Item: 6, Op: stream.Insert}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := New(durableConfig(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.Cardinality(5); got != 1 {
		t.Fatalf("recovered Cardinality = %d, want 1", got)
	}
}

// TestTornWALTailRecovered: bytes of a half-written record at the WAL tail
// (the crash artifact CRC framing exists to catch) must be discarded on
// recovery, not break it.
func TestTornWALTailRecovered(t *testing.T) {
	dir := t.TempDir()
	e := MustOpen(durableConfig(dir, 2))
	edges := feasibleStream(1_000, 30, 0.2, 47)
	if err := e.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	// Hard stop, then corrupt the tail the way a torn write would.
	segs, err := wal.ListSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v err %v", segs, err)
	}
	last := segs[len(segs)-1]
	appendBytes(t, wal.SegmentPath(dir, last), []byte{42, 0, 0, 0, 7})

	recovered := MustOpen(durableConfig(dir, 2))
	defer recovered.Close()
	single := core.MustNew(testConfig())
	for _, ed := range edges {
		single.Process(ed)
	}
	assertParity(t, recovered, single, 20)
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestReopenUnderDifferentShardCount: a checkpoint is merged state and the
// WAL is the logical stream, so neither remembers how many shards wrote
// them. Open folds the checkpoint into whatever shards it is given — the
// array into shard 0, each user's counter into the shard that now owns the
// user — and routes the suffix the same way, so an engine reopened under
// another Shards exports the single sketch's bytes, answers every
// cardinality from the owning shard alone, and carries on as an engine.
func TestReopenUnderDifferentShardCount(t *testing.T) {
	const users = 50
	for _, windowed := range []bool{false, true} {
		for _, shards := range [][2]int{{3, 1}, {1, 4}, {2, 5}} {
			t.Run(fmt.Sprintf("windowed=%v/%d→%d", windowed, shards[0], shards[1]), func(t *testing.T) {
				dir := t.TempDir()
				start := time.Unix(5000, 0)
				clk := clock.NewManual(start.Add(time.Millisecond)) // pinned: only AdvanceWindowTo rotates
				config := func(n int) Config {
					cfg := durableConfig(dir, n)
					if windowed {
						cfg.Window, cfg.Clock = &WindowConfig{Buckets: 3, BucketDuration: time.Second}, clk
					}
					return cfg
				}
				ref := &diffRef{sk: core.MustNew(testConfig())}
				if windowed {
					win, err := core.NewWindow(testConfig(), 3, time.Second, clk.Now())
					if err != nil {
						t.Fatal(err)
					}
					ref = &diffRef{win: win}
				}
				gen := &diffEdges{rng: rand.New(rand.NewSource(int64(shards[0]*10 + shards[1]))), users: users}
				write := func(e *Engine, n int) {
					t.Helper()
					edges := gen.next(n)
					if err := e.ProcessBatch(edges); err != nil {
						t.Fatal(err)
					}
					ref.apply(edges)
				}
				rotate := func(e *Engine, to time.Duration) {
					if windowed {
						e.Flush() // what was written goes into the bucket it was written under
						e.AdvanceWindowTo(start.Add(to))
						ref.win.AdvanceTo(start.Add(to))
					}
				}
				check := func(e *Engine, at string) {
					t.Helper()
					assertExport(t, e, ref, at)
					for u := stream.User(0); u < users; u++ {
						if got, want := e.Cardinality(u), ref.live().Cardinality(u); got != want {
							t.Fatalf("%s: Cardinality(%d) = %d, oracle %d", at, u, got, want)
						}
					}
				}

				wrote := MustOpen(config(shards[0]))
				write(wrote, 1500)
				rotate(wrote, time.Second)
				write(wrote, 400)
				if _, err := wrote.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				// The WAL suffix, in the bucket the checkpoint left current (a
				// rotation is in no WAL record); then the engine is abandoned,
				// not closed.
				write(wrote, 700)

				e := MustOpen(config(shards[1]))
				defer e.Close()
				check(e, "reopened")
				write(e, 300)
				rotate(e, 3*time.Second) // retires the first bucket, recovered state only
				write(e, 300)
				check(e, "reopened, written and rotated")
			})
		}
	}
}
