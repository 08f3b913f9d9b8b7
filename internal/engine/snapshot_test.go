package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
)

// snapshot returns the published merged sketch without staying registered
// as a reader — for white-box tests on engines no writer is racing.
func (e *Engine) snapshot() *core.VOS {
	v := e.acquire()
	defer v.Release()
	return v.Sk
}

// diffRef is the oracle of the differential test: one sketch (one window
// ring, on windowed engines) fed the same logical stream as the engine.
type diffRef struct {
	sk  *core.VOS
	win *core.Window
}

func (r *diffRef) apply(edges []stream.Edge) {
	if r.win != nil {
		r.win.Merged().ProcessBatch(edges)
		return
	}
	r.sk.ProcessBatch(edges)
}

// live is the sketch reads answer from.
func (r *diffRef) live() *core.VOS {
	if r.win != nil {
		return r.win.Merged()
	}
	return r.sk
}

// diffEdges draws the next write of the differential stream: inserts of
// fresh (user, item) pairs and deletes of live ones, so every prefix is
// feasible and counters cross zero both ways.
type diffEdges struct {
	rng   *rand.Rand
	users int
	live  []stream.Edge
}

func (g *diffEdges) next(n int) []stream.Edge {
	out := make([]stream.Edge, 0, n)
	for len(out) < n {
		if len(g.live) > 0 && g.rng.Intn(4) == 0 {
			i := g.rng.Intn(len(g.live))
			ed := g.live[i]
			g.live[i] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
			ed.Op = stream.Delete
			out = append(out, ed)
			continue
		}
		ed := stream.Edge{User: stream.User(g.rng.Intn(g.users)), Item: stream.Item(g.rng.Uint64()), Op: stream.Insert}
		g.live = append(g.live, ed)
		out = append(out, ed)
	}
	return out
}

// assertExport flushes and requires the engine's serialized state, ones
// count and live-user count to equal the oracle's — the array and counter
// values through the bytes, the maintained popcount and the pruning of
// zero counters (which the bytes filter out) through Stats.
func assertExport(t *testing.T, e *Engine, ref *diffRef, at string) {
	t.Helper()
	got, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.live().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: engine export diverges from the single-sketch oracle", at)
	}
	es, rs := e.Stats(), ref.live().Stats()
	if es.OnesCount != rs.OnesCount || es.Users != rs.Users {
		t.Fatalf("%s: ones/users = %d/%d, oracle %d/%d", at, es.OnesCount, es.Users, rs.OnesCount, rs.Users)
	}
}

// TestSnapshotDifferential interleaves every operation that reads or
// invalidates the merged snapshot, seeded, on 1-, 2- and 4-shard engines
// of each shape, and after every read requires the engine's export to be
// byte-identical to one sketch fed the same logical stream. The resident
// views are only ever correct if every replay and every fallback lands on
// an exact per-shard prefix, so any slip shows up as a diverging byte.
func TestSnapshotDifferential(t *testing.T) {
	const users = 60
	for _, shape := range []string{"plain", "windowed", "recovered", "ann"} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", shape, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(shape))*1000 + int64(shards)))
				gen := &diffEdges{rng: rng, users: users}
				// BatchSize 16 against the test sketch's 256-edge journal
				// bound: most writes replay, bursts overflow.
				cfg := Config{Sketch: testConfig(), Shards: shards, BatchSize: 16, FlushInterval: -1}
				ref := &diffRef{sk: core.MustNew(cfg.Sketch)}
				now := time.Unix(1000, 0)
				switch shape {
				case "windowed":
					clk := newFakeClock(now) // pinned: only AdvanceWindowTo rotates
					cfg.Window = &WindowConfig{Buckets: 3, BucketDuration: time.Second, Now: clk.Now}
					win, err := core.NewWindow(cfg.Sketch, 3, time.Second, now)
					if err != nil {
						t.Fatal(err)
					}
					ref = &diffRef{win: win}
				case "recovered":
					// Ingest, close (which checkpoints), reopen: the prefix now
					// lies folded in the shards, with no journal entry behind it.
					cfg.Durability = durableConfig(t.TempDir(), shards).Durability
					pre := MustOpen(cfg)
					prefix := gen.next(2000)
					if err := pre.ProcessBatch(prefix); err != nil {
						t.Fatal(err)
					}
					if err := pre.Close(); err != nil {
						t.Fatal(err)
					}
					ref.apply(prefix)
				case "ann":
					cfg.ANN = &ANNConfig{Bands: 16, Rows: 8}
				}
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if st := e.ShardStats()[0]; shape == "recovered" && (st.Beta == 0 || st.Processed != 0) {
					t.Fatalf("reopened engine's shard 0 does not hold the folded checkpoint: %+v", st)
				}

				cands := make([]stream.User, users)
				for i := range cands {
					cands[i] = stream.User(i)
				}
				for op := 0; op < 400; op++ {
					at := fmt.Sprintf("op %d", op)
					u, v := stream.User(rng.Intn(users)), stream.User(rng.Intn(users))
					switch k := rng.Intn(12); {
					case k < 4: // a write, sometimes a burst that overflows the journal
						n := 1 + rng.Intn(40)
						if rng.Intn(8) == 0 {
							n = 300 * shards
						}
						edges := gen.next(n)
						if err := e.ProcessBatch(edges); err != nil {
							t.Fatal(err)
						}
						ref.apply(edges)
						continue
					case k == 4: // an unflushed read: refreshes to some applied prefix
						e.Query(u, v)
						continue
					case k == 5:
						e.Flush()
						if got, want := e.Query(u, v), ref.live().Query(u, v); got != want {
							t.Fatalf("%s: Query(%d,%d) = %+v, oracle %+v", at, u, v, got, want)
						}
					case k == 6:
						e.Flush()
						got, want := e.TopK(u, cands, 5), ref.live().TopK(u, cands, 5)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s: TopK(%d) = %v, oracle %v", at, u, got, want)
						}
					case k == 7:
						if cfg.ANN == nil {
							continue
						}
						e.Flush()
						got, err := e.TopKApprox(u, 5)
						if err != nil {
							t.Fatal(err)
						}
						for _, r := range got {
							if want := ref.live().Query(u, r.User); r.Estimate != want {
								t.Fatalf("%s: TopKApprox(%d) scored %d as %+v, oracle %+v", at, u, r.User, r.Estimate, want)
							}
						}
					case k == 8:
						if cfg.Durability == nil {
							continue
						}
						if _, err := e.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					case k == 9:
						if cfg.Window == nil {
							continue
						}
						now = now.Add(time.Duration(300+rng.Intn(900)) * time.Millisecond)
						e.Flush() // the oracle rotates after everything written so far
						if got, want := e.AdvanceWindowTo(now), ref.win.AdvanceTo(now); got != want {
							t.Fatalf("%s: rotated %d buckets, oracle %d", at, got, want)
						}
					case k == 10:
						if cfg.Window != nil {
							continue // ImportSketch is unwindowed-only
						}
						other := core.MustNew(cfg.Sketch)
						other.ProcessBatch(gen.next(50))
						data, err := other.MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						if err := e.ImportSketch(data); err != nil {
							t.Fatal(err)
						}
						if err := ref.sk.Merge(other); err != nil {
							t.Fatal(err)
						}
					case k == 11:
						// MarshalBinary is the read assertExport makes below.
					}
					assertExport(t, e, ref, at)
				}

				st := e.SnapshotStats()
				t.Logf("%+v", st)
				if st.Replays == 0 || st.ReplayedEdges == 0 {
					t.Fatalf("the replay path was never taken: %+v", st)
				}
				if st.RebuildsFirst != 1 {
					t.Fatalf("RebuildsFirst = %d, want 1 (the pair's first refresh)", st.RebuildsFirst)
				}
				if st.RebuildsOverflow == 0 || st.JournalOverflows == 0 {
					t.Fatalf("write bursts never overflowed a journal: %+v", st)
				}
				if (cfg.Window != nil) != (st.RebuildsRotation > 0) {
					t.Fatalf("RebuildsRotation = %d on a %s engine", st.RebuildsRotation, shape)
				}
				if (cfg.Window == nil) != (st.RebuildsImport > 0) {
					t.Fatalf("RebuildsImport = %d on a %s engine", st.RebuildsImport, shape)
				}
				if st.RebuildsBusy != 0 {
					t.Fatalf("RebuildsBusy = %d with no overlapping reader", st.RebuildsBusy)
				}
			})
		}
	}
}

// TestSnapshotFallbackCauses walks each fallback trigger on its own and
// pins, through the counters, which path every single refresh took: with
// no reader overlapping a refresh, a read after a write replays exactly
// the edges written, the trigger costs exactly one re-merge under its own
// cause, and the refresh after it replays again. A change that silently
// always rebuilds — or replays across a trigger, or replays an edge twice —
// fails here.
func TestSnapshotFallbackCauses(t *testing.T) {
	clk := newFakeClock(time.Unix(1000, 0))
	cfg := windowConfig(2, 3, clk)
	cfg.BatchSize = 16
	e := MustNew(cfg)
	defer e.Close()
	win, err := core.NewWindow(cfg.Sketch, 3, time.Second, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	ref := &diffRef{win: win}
	gen := &diffEdges{rng: rand.New(rand.NewSource(5)), users: 60}

	// step writes n edges, reads, and requires the read to have been served
	// by exactly the named path.
	step := func(name string, n int, want func(d SnapshotStats) bool) {
		t.Helper()
		edges := gen.next(n)
		if err := e.ProcessBatch(edges); err != nil {
			t.Fatal(err)
		}
		ref.apply(edges)
		e.Flush()
		before := e.SnapshotStats()
		if got, want := e.Query(1, 2), ref.live().Query(1, 2); got != want {
			t.Fatalf("%s: Query = %+v, oracle %+v", name, got, want)
		}
		after := e.SnapshotStats()
		d := SnapshotStats{
			Replays:          after.Replays - before.Replays,
			ReplayedEdges:    after.ReplayedEdges - before.ReplayedEdges,
			RebuildsFirst:    after.RebuildsFirst - before.RebuildsFirst,
			RebuildsOverflow: after.RebuildsOverflow - before.RebuildsOverflow,
			RebuildsRotation: after.RebuildsRotation - before.RebuildsRotation,
			RebuildsImport:   after.RebuildsImport - before.RebuildsImport,
			RebuildsBusy:     after.RebuildsBusy - before.RebuildsBusy,
		}
		if d.Replays+d.Rebuilds() != 1 || !want(d) {
			t.Fatalf("%s: refresh took the wrong path: %+v", name, d)
		}
		assertExport(t, e, ref, name)
	}
	first := func(d SnapshotStats) bool { return d.RebuildsFirst == 1 }
	overflow := func(d SnapshotStats) bool { return d.RebuildsOverflow == 1 }
	rotation := func(d SnapshotStats) bool { return d.RebuildsRotation == 1 }
	// A replay folds in what was written since the view was last current:
	// with nobody holding the published view, that is this write alone.
	replay := func(edges uint64) func(SnapshotStats) bool {
		return func(d SnapshotStats) bool { return d.Replays == 1 && d.ReplayedEdges == edges }
	}

	step("first view", 20, first)
	for i := 0; i < 8; i++ {
		n := 1 + 7*i
		step(fmt.Sprintf("replay %d", i), n, replay(uint64(n)))
	}

	// 2 shards × 256-edge bound: 1200 edges overflow both journals.
	// The journals are rings: they evict their oldest batches (16 edges each)
	// down to the bound and stay on, holding the newest.
	step("overflow", 1200, overflow)
	if n := e.SnapshotStats().JournalOverflows; n < (1200-2*256)/16 {
		t.Fatalf("JournalOverflows = %d, want every batch past the bound evicted", n)
	}
	for i, s := range e.shards {
		if held := s.processed.Load() - s.jFrom; held > e.journalMax || held+16 <= e.journalMax {
			t.Fatalf("shard %d journal holds %d edges, want the newest up to the %d-edge bound", i, held, e.journalMax)
		}
	}
	step("replay after overflow", 20, replay(20))

	clk.Set(time.Unix(1001, 0).Add(time.Millisecond))
	if got, want := e.AdvanceWindowTo(clk.Now()), ref.win.AdvanceTo(clk.Now()); got != 1 || want != 1 {
		t.Fatalf("rotated %d buckets, oracle %d, want 1", got, want)
	}
	step("rotation", 20, rotation)
	step("replay after rotation", 20, replay(20))

	// A read with nothing new applied is served as is: no refresh at all.
	before := e.SnapshotStats()
	e.Query(1, 2)
	if after := e.SnapshotStats(); after != before {
		t.Fatalf("quiet read refreshed: %+v → %+v", before, after)
	}
	if st := e.SnapshotStats(); st.RebuildsFirst != 1 || st.Rebuilds() != 3 {
		t.Fatalf("one first view, one overflow and one rotation should be 3 re-merges: %+v", st)
	}
}

// TestSnapshotFallbackImport is the ImportSketch row of the table above
// (imports are unwindowed-only, so it needs its own engine): a new base
// costs the resident view one re-merge, with a recovery base already in
// place, and the reads after it replay again.
func TestSnapshotFallbackImport(t *testing.T) {
	e := MustNew(Config{Sketch: testConfig(), Shards: 2, BatchSize: 16, FlushInterval: -1})
	defer e.Close()
	ref := &diffRef{sk: core.MustNew(testConfig())}
	gen := &diffEdges{rng: rand.New(rand.NewSource(9)), users: 60}
	read := func() SnapshotStats {
		t.Helper()
		edges := gen.next(20)
		if err := e.ProcessBatch(edges); err != nil {
			t.Fatal(err)
		}
		ref.apply(edges)
		e.Flush()
		if got, want := e.Query(1, 2), ref.sk.Query(1, 2); got != want {
			t.Fatalf("Query = %+v, oracle %+v", got, want)
		}
		assertExport(t, e, ref, "read")
		return e.SnapshotStats()
	}
	read()
	read()
	if st := read(); st.Replays != 2 || st.Rebuilds() != 1 {
		t.Fatalf("warm-up: %+v", st)
	}
	for round := uint64(1); round <= 2; round++ {
		other := core.MustNew(testConfig())
		other.ProcessBatch(gen.next(100))
		data, err := other.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ImportSketch(data); err != nil {
			t.Fatal(err)
		}
		if err := ref.sk.Merge(other); err != nil {
			t.Fatal(err)
		}
		// assertExport inside read makes one more refresh-free read each.
		if st := read(); st.RebuildsImport != round || st.Replays != 2*round {
			t.Fatalf("round %d, first read after import: %+v", round, st)
		}
		if st := read(); st.RebuildsImport != round || st.Replays != 2*round+1 {
			t.Fatalf("round %d, second read after import: %+v", round, st)
		}
		if st := read(); st.RebuildsImport != round || st.Replays != 2*round+2 {
			t.Fatalf("round %d, third read after import: %+v", round, st)
		}
	}
}

// parkCtx is a context whose Done blocks until the test says go: the
// top-K scan calls Done once, after it has acquired the snapshot view and
// recovered the probe, so a read made with it parks inside the scan while
// holding its view for as long as the test likes.
type parkCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
	resume chan struct{}
}

func (c *parkCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	<-c.resume
	return nil
}

// TestSnapshotParkedReader parks a reader on the published view and
// refreshes the snapshot ten times underneath it. The refreshes must not
// wait for the reader (they run to completion on this goroutine while it
// is parked — the first, which finds the reader on the published view and
// no spare, re-merges instead), must stay exact, and must never touch the
// reader's view: its
// answer, computed after all of them, is the answer as of the park. The
// second half adds live readers overlapping every refresh, for -race.
func TestSnapshotParkedReader(t *testing.T) {
	const users = 60
	e := MustNew(Config{Sketch: testConfig(), Shards: 2, BatchSize: 16, FlushInterval: -1})
	defer e.Close()
	ref := &diffRef{sk: core.MustNew(testConfig())}
	gen := &diffEdges{rng: rand.New(rand.NewSource(3)), users: users}
	cands := make([]stream.User, users)
	for i := range cands {
		cands[i] = stream.User(i)
	}
	write := func() {
		t.Helper()
		edges := gen.next(30)
		if err := e.ProcessBatch(edges); err != nil {
			t.Fatal(err)
		}
		ref.apply(edges)
		e.Flush()
	}
	for i := 0; i < 3; i++ { // one view resident, replaying in place
		write()
		assertExport(t, e, ref, "warm-up")
	}
	want := ref.sk.TopK(7, cands, 10)

	ctx := &parkCtx{Context: context.Background(), parked: make(chan struct{}), resume: make(chan struct{})}
	type answer struct {
		top []core.TopKResult
		err error
	}
	done := make(chan answer, 1)
	go func() {
		top, err := e.TopKContext(ctx, 7, cands, 10)
		done <- answer{top, err}
	}()
	<-ctx.parked

	refreshes := func(n int, at string) {
		t.Helper()
		for i := 0; i < n; i++ {
			write()
			if got, want := e.Query(1, 2), ref.sk.Query(1, 2); got != want {
				t.Fatalf("refresh %d %s: Query = %+v, oracle %+v", i, at, got, want)
			}
			assertExport(t, e, ref, at)
		}
	}

	// Alone with the parked reader the paths are exact: the first refresh
	// finds the reader's view published and no spare, so it re-merges and
	// retires the reader's view to spare; the rest replay the new view in
	// place.
	before := e.SnapshotStats()
	refreshes(4, "under a parked reader")
	after := e.SnapshotStats()
	if busy, replays := after.RebuildsBusy-before.RebuildsBusy, after.Replays-before.Replays; busy != 1 || replays != 3 || after.Rebuilds()-before.Rebuilds() != 1 {
		t.Fatalf("4 refreshes around a parked reader took %d busy re-merges and %d replays, want 1 and 3: %+v → %+v", busy, replays, before, after)
	}

	// And with readers that come and go across further refreshes: how many
	// of those find their spare busy is up to the scheduler, the answers
	// are not.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e.Query(stream.User(g), stream.User(i%users))
				e.TopK(stream.User(g), cands, 3)
			}
		}(g)
	}
	refreshes(6, "under a parked reader and live ones")
	close(stop)
	wg.Wait()
	select {
	case a := <-done:
		t.Fatalf("reader finished while it should be parked: %+v", a)
	default:
	}

	close(ctx.resume)
	a := <-done
	if a.err != nil {
		t.Fatal(a.err)
	}
	if fmt.Sprint(a.top) != fmt.Sprint(want) {
		t.Fatalf("parked reader's answer moved with the stream:\n got %v\nwant %v", a.top, want)
	}
}

// TestHeldViewNeverChanges holds views while writes and reads run: whatever
// a refresh writes — the published view in place, the spare, or a fresh
// view — a view some reader holds reads the same bytes at release as at
// acquire, and the engine stays exact. Under -race an in-place write to a
// held view is also a reported race.
func TestHeldViewNeverChanges(t *testing.T) {
	e := MustNew(Config{Sketch: testConfig(), Shards: 2, BatchSize: 16, FlushInterval: -1})
	defer e.Close()
	ref := &diffRef{sk: core.MustNew(testConfig())}
	gen := &diffEdges{rng: rand.New(rand.NewSource(11)), users: 60}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := e.acquire()
				at, err := v.Sk.MarshalBinary()
				if err == nil {
					time.Sleep(50 * time.Microsecond) // writes and refreshes run meanwhile
					var again []byte
					if again, err = v.Sk.MarshalBinary(); err == nil && !bytes.Equal(at, again) {
						err = fmt.Errorf("a held view at %v changed under its reader", v.Stamp.at)
					}
				}
				v.Release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		edges := gen.next(1 + i%30)
		if err := e.ProcessBatch(edges); err != nil {
			t.Fatal(err)
		}
		ref.apply(edges)
		e.Flush()
		if got, want := e.Query(1, 2), ref.sk.Query(1, 2); got != want {
			t.Fatalf("write %d: Query = %+v, oracle %+v", i, got, want)
		}
	}
	close(stop)
	wg.Wait()
	assertExport(t, e, ref, "after the held reads")
	st := e.SnapshotStats()
	t.Logf("%+v", st)
	// A spare left behind by a long read may have outrun its journal.
	if st.RebuildsFirst != 1 || st.Replays == 0 || st.Rebuilds() != 1+st.RebuildsBusy+st.RebuildsOverflow {
		t.Fatalf("reads after writes took a path other than replay, a busy or an overflow re-merge: %+v", st)
	}
}
