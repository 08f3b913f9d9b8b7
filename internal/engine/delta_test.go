package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/core"
)

// deltaReader is a remote reader's side of ExportSince: a sketch of its
// own, the cursor it holds, and what it has been sent.
type deltaReader struct {
	sk     *core.VOS
	cursor string
	edges  int
	fulls  map[string]int // by Fallback
}

func newDeltaReader() *deltaReader {
	return &deltaReader{sk: core.MustNew(testConfig()), fulls: map[string]int{}}
}

// pull fetches everything since the reader's cursor and requires the
// reader's sketch to equal the engine's export afterwards.
func (r *deltaReader) pull(t *testing.T, e *Engine, at string) Delta {
	t.Helper()
	d, err := e.ExportSince(r.cursor)
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	if d.Full != nil {
		if r.sk, err = core.UnmarshalVOS(d.Full); err != nil {
			t.Fatal(err)
		}
		r.fulls[d.Fallback]++
	} else {
		if d.Fallback != "" {
			t.Fatalf("%s: a delta came with fallback %q", at, d.Fallback)
		}
		r.sk.ProcessBatch(d.Edges)
		r.edges += len(d.Edges)
	}
	r.cursor = d.Cursor
	got, err := r.sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: reader's sketch diverges from the engine's export", at)
	}
	return d
}

// TestExportSince walks the delta export with two readers holding cursors
// of their own: each is sent exactly what it has not seen, however the
// other one and the engine's own views read; a cursor the journal has left
// behind, or one from before an import, is answered in full with the
// reason; and serving a delta moves nothing in the engine.
func TestExportSince(t *testing.T) {
	e := MustNew(Config{Sketch: testConfig(), Shards: 2, BatchSize: 16, FlushInterval: -1})
	defer e.Close()
	gen := &diffEdges{rng: rand.New(rand.NewSource(11)), users: 60}
	write := func(n int) {
		t.Helper()
		if err := e.ProcessBatch(gen.next(n)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := newDeltaReader(), newDeltaReader()

	write(30)
	if d := a.pull(t, e, "a, no cursor"); d.Full == nil || d.Fallback != "" {
		t.Fatalf("no cursor: want the full sketch and no fallback reason, got %+v", d)
	}
	write(20)
	b.pull(t, e, "b, no cursor")
	write(25)
	before := e.SnapshotStats()
	a.pull(t, e, "a, 45 behind")
	b.pull(t, e, "b, 25 behind")
	if a.edges != 45 || b.edges != 25 {
		t.Fatalf("readers were sent %d and %d edges, want 45 and 25", a.edges, b.edges)
	}
	// Asking again is free of effect: the same cursor, nothing new.
	for i := 0; i < 2; i++ {
		if d := a.pull(t, e, "a, current"); d.Full != nil || len(d.Edges) != 0 || d.Cursor != a.cursor {
			t.Fatalf("current cursor: want an empty delta and the same cursor, got %+v", d)
		}
	}
	// pull's MarshalBinary reads go through the engine's own views; the
	// delta exports themselves must not have refreshed or rebuilt anything
	// beyond those.
	after := e.SnapshotStats()
	if after.Rebuilds() != before.Rebuilds() {
		t.Fatalf("delta exports rebuilt an engine view: %+v → %+v", before, after)
	}

	// 2 shards × 256-edge bound: a is left behind by 1200 edges, b keeps up.
	for i := 0; i < 4; i++ {
		write(300)
		b.pull(t, e, "b, keeping up")
	}
	if d := a.pull(t, e, "a, left behind"); d.Full == nil || d.Fallback != FallbackJournal {
		t.Fatalf("cursor past the journal: want the full sketch for %q, got fallback %q", FallbackJournal, d.Fallback)
	}
	if len(b.fulls) != 1 || b.fulls[""] != 1 {
		t.Fatalf("the reader that kept up fell back: %v", b.fulls)
	}
	write(20)
	if d := a.pull(t, e, "a, after its fallback"); d.Full != nil || len(d.Edges) != 20 {
		t.Fatalf("after a fallback the new cursor must replay: %+v", d)
	}

	// An import changes state no journal records: every cursor is void.
	other := core.MustNew(testConfig())
	other.ProcessBatch(gen.next(40))
	data, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ImportSketch(data); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*deltaReader{a, b} {
		if d := r.pull(t, e, "after import"); d.Full == nil || d.Fallback != FallbackEpoch {
			t.Fatalf("cursor from before an import: want the full sketch for %q, got %+v", FallbackEpoch, d.Fallback)
		}
		write(10)
		if d := r.pull(t, e, "after import, new cursor"); d.Full != nil {
			t.Fatalf("the cursor issued after an import must replay, got fallback %q", d.Fallback)
		}
	}

	for _, bad := range []string{"x", ":", "1.2.3", "1.2.3:", "1.2:4,5", "g.0.0:1,2", "1.0.0:1,,2", "1.0.0:-1,2", "1.0.0:1,2:3", "1.0.0.0:1,2"} {
		if _, err := e.ExportSince(bad); !errors.Is(err, ErrBadCursor) {
			t.Fatalf("ExportSince(%q) = %v, want ErrBadCursor", bad, err)
		}
	}
	// Well-formed but never issued here: another shard count, positions from
	// the future. Answered in full, not refused.
	for _, alien := range []string{"1.0.0:1", a.cursor + ",0", a.cursor + "0000"} {
		d, err := e.ExportSince(alien)
		if err != nil || d.Full == nil || d.Fallback == "" {
			t.Fatalf("ExportSince(%q) = %+v, %v, want the full sketch with a reason", alien, d, err)
		}
	}
}

// TestExportSinceAcrossRestartAndRotation: processed counts start over with
// the process, so a cursor from an earlier life must be refused even when
// its positions happen to exist again; and a window rotation retires state
// without a journal entry.
func TestExportSinceAcrossRestartAndRotation(t *testing.T) {
	gen := &diffEdges{rng: rand.New(rand.NewSource(12)), users: 60}
	cfg := durableConfig(t.TempDir(), 2)
	cfg.FlushInterval = -1
	e := MustOpen(cfg)
	r := newDeltaReader()
	if err := e.ProcessBatch(gen.next(20)); err != nil {
		t.Fatal(err)
	}
	r.pull(t, e, "first life")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e = MustOpen(cfg)
	defer e.Close()
	// Past the old positions in both shards, journals reaching back to zero.
	if err := e.ProcessBatch(gen.next(200)); err != nil {
		t.Fatal(err)
	}
	if d := r.pull(t, e, "second life"); d.Full == nil || d.Fallback != FallbackEpoch {
		t.Fatalf("cursor from before a restart: want the full sketch for %q, got fallback %q", FallbackEpoch, d.Fallback)
	}

	clk := newFakeClock(time.Unix(1000, 0))
	w := MustNew(windowConfig(2, 3, clk))
	defer w.Close()
	wr := newDeltaReader()
	if err := w.ProcessBatch(gen.next(20)); err != nil {
		t.Fatal(err)
	}
	wr.pull(t, w, "windowed, no cursor")
	if err := w.ProcessBatch(gen.next(20)); err != nil {
		t.Fatal(err)
	}
	if d := wr.pull(t, w, "windowed, same rotation"); d.Full != nil || len(d.Edges) != 20 {
		t.Fatalf("within one rotation the cursor must replay: %+v", d)
	}
	w.Flush()
	if n := w.AdvanceWindowTo(time.Unix(1003, 0)); n == 0 {
		t.Fatal("the window did not rotate")
	}
	if d := wr.pull(t, w, "windowed, after a rotation"); d.Full == nil || d.Fallback != FallbackEpoch {
		t.Fatalf("cursor from before a rotation: want the full sketch for %q, got fallback %q", FallbackEpoch, d.Fallback)
	}
}

// TestExportSinceRacingWrites pulls deltas from two readers while a writer
// keeps the journals turning over (evicting under them) and the engine's
// own views are being read: whatever interleaving of replays and fallbacks
// each reader saw, once the writer stops one more pull leaves it holding
// the engine's exact state. Run under -race.
func TestExportSinceRacingWrites(t *testing.T) {
	e := MustNew(Config{Sketch: testConfig(), Shards: 2, BatchSize: 16, FlushInterval: -1})
	defer e.Close()
	gen := &diffEdges{rng: rand.New(rand.NewSource(13)), users: 60}
	var deltas atomic.Int64 // received by the readers, together
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20_000 && deltas.Load() < 200; i++ {
			if err := e.ProcessBatch(gen.next(40)); err != nil {
				t.Error(err)
				return
			}
			e.Query(1, 2)
		}
	}()
	readers := []*deltaReader{newDeltaReader(), newDeltaReader()}
	var wg sync.WaitGroup
	for _, r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				d, err := e.ExportSince(r.cursor)
				if err != nil {
					t.Error(err)
					return
				}
				if d.Full != nil {
					if r.sk, err = core.UnmarshalVOS(d.Full); err != nil {
						t.Error(err)
						return
					}
				} else {
					r.sk.ProcessBatch(d.Edges)
					r.edges += len(d.Edges)
					deltas.Add(1)
				}
				r.cursor = d.Cursor
			}
		}()
	}
	wg.Wait()
	if deltas.Load() < 200 {
		t.Fatalf("the readers received %d deltas in 20000 writes", deltas.Load())
	}
	for _, r := range readers {
		r.pull(t, e, "after the writer stopped")
	}
}
