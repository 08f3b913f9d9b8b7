package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/clock"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
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
	e := MustNew(Config{Sketch: testConfig(), Shards: 2, BatchSize: 16, Clock: clock.NewManual(time.Time{})})
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

// TestExportSinceFromInsideABatch: a cursor position may fall inside a
// journalled batch — the cursor of a write that shared its batch with
// another's (Engine.ProcessBatchSpan) does — and is then answered with the
// rest of that batch, not the whole of it: the edges before the position are
// the reader's already, and sending them again would cancel them.
func TestExportSinceFromInsideABatch(t *testing.T) {
	e := MustNew(Config{Sketch: testConfig(), Shards: 1, BatchSize: 16, Clock: clock.NewManual(time.Time{})})
	defer e.Close()
	gen := &diffEdges{rng: rand.New(rand.NewSource(14)), users: 60}
	edges := gen.next(40) // batches end at 16, 32 and 40
	if err := e.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	d, err := e.ExportSince("")
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []uint64{35, 32, 20, 1} {
		c, err := parseCursor(d.Cursor)
		if err != nil {
			t.Fatal(err)
		}
		c.at[0] = at
		r := newDeltaReader()
		r.sk.ProcessBatch(edges[:at])
		r.cursor = c.String()
		got := r.pull(t, e, "a cursor inside a batch")
		if len(got.Edges) != len(edges)-int(at) || got.Edges[0] != edges[at] {
			t.Fatalf("from position %d: sent %d edges, want the %d past it", at, len(got.Edges), len(edges)-int(at))
		}
	}
}

// TestProcessBatchSpan: a span names the states just before and just after
// the call's edges — ExportSince its Before answers exactly them, under its
// After — and there is none when another write lands on a shard, or the
// epoch moves, between the two readings route takes (the atCut hook lands
// them inside the hand-over, after the first shard's count was read).
func TestProcessBatchSpan(t *testing.T) {
	for _, between := range []string{"nothing", "a write", "an import"} {
		t.Run(between, func(t *testing.T) {
			e := MustNew(Config{Sketch: testConfig(), Shards: 2, BatchSize: 4, Clock: clock.NewManual(time.Time{})})
			defer e.Close()
			var users [2][]stream.User
			for u := stream.User(1); len(users[0]) < 3 || len(users[1]) < 4; u++ {
				users[e.ShardOf(u)] = append(users[e.ShardOf(u)], u)
			}
			var edges []stream.Edge // two to shard 0, no cut; four to shard 1, one cut
			for i, u := range append(users[0][:2:2], users[1][:4]...) {
				edges = append(edges, stream.Edge{User: u, Item: stream.Item(i), Op: stream.Insert})
			}
			other := core.MustNew(testConfig())
			other.Process(stream.Edge{User: 1, Item: 99, Op: stream.Insert})
			state, err := other.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			atCut = func() {
				switch between {
				case "a write":
					e.shards[0].add([]stream.Edge{{User: users[0][2], Item: 7, Op: stream.Insert}}, e.cfg.BatchSize)
				case "an import":
					if err := e.ImportSketch(state); err != nil {
						t.Error(err)
					}
				}
			}
			defer func() { atCut = nil }()
			span, err := e.ProcessBatchSpan(edges, nil)
			if err != nil {
				t.Fatal(err)
			}
			if between != "nothing" {
				if span != (Span{}) {
					t.Fatalf("%s between the readings, and still a span: %+v", between, span)
				}
				return
			}
			d, err := e.ExportSince(span.Before)
			if err != nil || d.Full != nil || len(d.Edges) != len(edges) || d.Cursor != span.After {
				t.Fatalf("since the span's start: %d edges, full %v, cursor %q (%v); want the %d edges under %q", len(d.Edges), d.Full != nil, d.Cursor, err, len(edges), span.After)
			}
		})
	}
}

// TestExportSinceAcrossRestartAndRotation: processed counts start over with
// the process, so a cursor from an earlier life must be refused even when
// its positions happen to exist again; and a window rotation retires state
// without a journal entry.
func TestExportSinceAcrossRestartAndRotation(t *testing.T) {
	gen := &diffEdges{rng: rand.New(rand.NewSource(12)), users: 60}
	cfg := durableConfig(t.TempDir(), 2)
	cfg.Clock = clock.NewManual(time.Time{})
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

	clk := clock.NewManual(time.Unix(1000, 0))
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
	e := MustNew(Config{Sketch: testConfig(), Shards: 2, BatchSize: 16, Clock: clock.NewManual(time.Time{})})
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
