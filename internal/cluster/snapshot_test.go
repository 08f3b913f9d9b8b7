package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/server"
)

// diffSketchCfg gives each backend engine shard a 64-edge journal: small
// writes replay, bursts overflow.
var diffSketchCfg = vos.Config{MemoryBits: 1 << 16, SketchBits: 256, Seed: 5}

// diffBackend is a loopback backend whose engine can be swapped under a
// fixed URL (a restart), whose sketch exports are counted, and whose next
// ingest answer can be made to fail after the batch was applied.
type diffBackend struct {
	ts      *httptest.Server
	handler atomic.Pointer[server.Server]
	eng     *vos.Engine
	cfg     vos.EngineConfig
	dir     string
	exports atomic.Int64
	fault   atomic.Int32 // one of the faults below, for the next POST /v1/edges
}

const (
	applyThen500  = iota + 1 // the batch is applied, the answer is a 500
	applyThenDrop            // the batch is applied, the connection is cut
)

func (b *diffBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case server.RouteClusterSketch:
		b.exports.Add(1)
	case server.RouteEdges:
		switch b.fault.Swap(0) {
		case applyThen500:
			b.handler.Load().ServeHTTP(httptest.NewRecorder(), r)
			server.WriteError(w, http.StatusInternalServerError, server.CodeInternal, "applied, then failed")
			return
		case applyThenDrop:
			b.handler.Load().ServeHTTP(httptest.NewRecorder(), r)
			panic(http.ErrAbortHandler)
		}
	}
	b.handler.Load().ServeHTTP(w, r)
}

// boot opens (or reopens) the backend's engine behind its URL.
func (b *diffBackend) boot(t *testing.T) {
	t.Helper()
	var err error
	if b.dir != "" {
		b.eng, err = vos.OpenEngine(b.dir, b.cfg)
	} else {
		b.eng, err = vos.NewEngine(b.cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	b.handler.Store(server.New(vos.NewEngineService(b.eng), server.Options{}))
}

// newDiffBackend starts a backend: durable in a fresh directory, or, with a
// window configuration, windowed and in memory.
func newDiffBackend(t *testing.T, win *vos.WindowConfig) *diffBackend {
	t.Helper()
	b := &diffBackend{cfg: vos.EngineConfig{Sketch: diffSketchCfg, Shards: 2, Window: win}}
	if win == nil {
		b.dir = t.TempDir()
		b.cfg.Durability = &vos.DurabilityConfig{Sync: vos.SyncOff}
	}
	b.boot(t)
	b.ts = httptest.NewServer(b)
	t.Cleanup(func() {
		b.ts.Close()
		b.eng.Close()
	})
	return b
}

// diffStream draws the writes of the differential test: inserts of fresh
// (user, item) pairs and deletes of live ones.
type diffStream struct {
	rng  *rand.Rand
	live []vos.Edge
}

func (g *diffStream) next(n, users int) []vos.Edge {
	out := make([]vos.Edge, 0, n)
	for len(out) < n {
		if len(g.live) > 0 && g.rng.Intn(4) == 0 {
			i := g.rng.Intn(len(g.live))
			ed := g.live[i]
			g.live[i] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
			ed.Op = vos.Delete
			out = append(out, ed)
			continue
		}
		ed := vos.Edge{User: vos.User(g.rng.Intn(users)), Item: vos.Item(g.rng.Uint64()), Op: vos.Insert}
		g.live = append(g.live, ed)
		out = append(out, ed)
	}
	return out
}

func addStats(a, b vos.SnapshotStats) vos.SnapshotStats {
	a.Replays += b.Replays
	a.ReplayedEdges += b.ReplayedEdges
	a.RebuildsFirst += b.RebuildsFirst
	a.RebuildsOverflow += b.RebuildsOverflow
	a.RebuildsBusy += b.RebuildsBusy
	a.RebuildsEpoch += b.RebuildsEpoch
	a.RebuildsRing += b.RebuildsRing
	a.RebuildsNoDelta += b.RebuildsNoDelta
	a.GatheredBytes += b.GatheredBytes
	a.LocalReplays += b.LocalReplays
	return a
}

// TestGatewaySnapshotDifferential is TestSnapshotDifferential one tier up:
// a seeded sequence of everything that reads or invalidates the gateway's
// resident merged views, over K real loopback backends (durable ones and a
// windowed one), through two gateways that share them, and after every read
// the reading gateway's export must be byte-identical to one sketch fed the
// same logical stream. A replay that lands on anything but the exact state
// a backend's cursor names, or a fallback that is not taken when it has to
// be, shows up as a diverging byte.
//
// A gateway knows of the writes it forwarded, so each read here follows an
// ingest through the same gateway — as a gateway's reads do in production —
// and sees everything any gateway and any out-of-band operation did before.
// Where the gateway's own writes are all a backend applied since the view,
// the read folds them in from their spans and asks no backend; everything
// else here (the other gateway's writes, restarts, imports, rotations, a
// handoff) must send it to the backends instead.
func TestGatewaySnapshotDifferential(t *testing.T) {
	const users = 60
	ctx := context.Background()
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(k)))
			gen := &diffStream{rng: rng}
			now := time.Unix(1000, 0)
			pinned := now // the clock stands still: only AdvanceWindowTo rotates
			winCfg := &vos.WindowConfig{Buckets: 3, BucketDuration: time.Second, Now: func() time.Time { return pinned }}

			// Slot 1 is the windowed backend; every other slot is durable.
			const winSlot = 1
			backends := make([]*diffBackend, k)
			urls := make([]string, k)
			for i := range backends {
				if i == winSlot {
					backends[i] = newDiffBackend(t, winCfg)
				} else {
					backends[i] = newDiffBackend(t, nil)
				}
				urls[i] = backends[i].ts.URL
			}
			opt := Options{}
			opt.Client.MaxRetries = -1
			gw1, err := New(&Ring{Version: 1, RouteSeed: 9, Shards: urls}, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer gw1.Close()
			gw2, err := New(gw1.Ring(), opt)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { gw2.Close() }()
			var stats [2]vos.SnapshotStats // gw2's include its earlier incarnations
			gws := func() [2]*Gateway { return [2]*Gateway{gw1, gw2} }

			// The oracle: one sketch for the durable slots, one window ring for
			// the windowed slot, merged for comparison.
			plain := core.MustNew(diffSketchCfg)
			win, err := core.NewWindow(diffSketchCfg, 3, time.Second, now)
			if err != nil {
				t.Fatal(err)
			}
			oracle := func() *core.VOS {
				sk := core.MustNew(diffSketchCfg)
				if err := sk.Merge(plain); err != nil {
					t.Fatal(err)
				}
				if err := sk.Merge(win.Merged()); err != nil {
					t.Fatal(err)
				}
				return sk
			}
			ring := gw1.Ring()
			write := func(gw *Gateway, n int) {
				t.Helper()
				edges := gen.next(n, users)
				if err := gw.Ingest(ctx, edges); err != nil {
					t.Fatal(err)
				}
				for _, ed := range edges {
					if ring.ShardOf(ed.User) == winSlot {
						win.Merged().ProcessBatch([]vos.Edge{ed})
					} else {
						plain.Process(ed)
					}
				}
			}
			assertExport := func(gw *Gateway, at string) *core.VOS {
				t.Helper()
				got, err := gw.ExportSketch(ctx)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				want := oracle()
				wantBytes, err := want.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantBytes) {
					t.Fatalf("%s: gateway export diverges from the single-sketch oracle", at)
				}
				return want
			}
			cands := make([]vos.User, users)
			for i := range cands {
				cands[i] = vos.User(i)
			}

			handoffs := 0
			for op := 0; op < 400; op++ {
				at := fmt.Sprintf("op %d", op)
				which := rng.Intn(2)
				gw := gws()[which]
				u, v := vos.User(rng.Intn(users)), vos.User(rng.Intn(users))
				// Out-of-band operations first, then a write through the reading
				// gateway, then the read.
				switch c := rng.Intn(48); {
				case c == 0: // a burst past every journal's bound
					write(gw, 600*k)
				case c == 1: // a durable backend restarts under its URL
					b := backends[(winSlot+1+rng.Intn(k-1))%k]
					if err := b.eng.Close(); err != nil {
						t.Fatal(err)
					}
					b.boot(t)
				case c == 2: // a backend imports state behind the gateways' backs
					other := core.MustNew(diffSketchCfg)
					for _, ed := range gen.next(30, users) {
						other.Process(ed)
					}
					data, err := other.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if err := backends[(winSlot+1+rng.Intn(k-1))%k].eng.ImportSketch(data); err != nil {
						t.Fatal(err)
					}
					if err := plain.Merge(other); err != nil {
						t.Fatal(err)
					}
				case c == 3: // the windowed backend rotates
					now = now.Add(time.Duration(300+rng.Intn(900)) * time.Millisecond)
					if got, want := backends[winSlot].eng.AdvanceWindowTo(now), win.AdvanceTo(now); got != want {
						t.Fatalf("%s: rotated %d buckets, oracle %d", at, got, want)
					}
				case c == 4 && handoffs < 2: // slot 0 moves to a fresh node
					handoffs++
					fresh := newDiffBackend(t, nil)
					if _, err := gw1.Handoff(ctx, 0, fresh.ts.URL); err != nil {
						t.Fatal(err)
					}
					backends[0] = fresh
					// The second gateway learns the ring the way an operator
					// would tell it: it is restarted on the new one.
					stats[1] = addStats(stats[1], gw2.SnapshotStats())
					gw2.Close()
					if gw2, err = New(gw1.Ring(), opt); err != nil {
						t.Fatal(err)
					}
					gw = gws()[which]
				}
				write(gw, 1+rng.Intn(20))
				switch rng.Intn(3) {
				case 0:
					want := assertExport(gw, at)
					got, err := gw.Similarity(ctx, u, v)
					if err != nil {
						t.Fatal(err)
					}
					if got != want.Query(u, v) {
						t.Fatalf("%s: Similarity(%d,%d) = %+v, oracle %+v", at, u, v, got, want.Query(u, v))
					}
				case 1:
					got, err := gw.TopK(ctx, u, cands, 5)
					if err != nil {
						t.Fatal(err)
					}
					want := assertExport(gw, at)
					if fmt.Sprint(got) != fmt.Sprint(want.TopK(u, cands, 5)) {
						t.Fatalf("%s: TopK(%d) = %v, oracle %v", at, u, got, want.TopK(u, cands, 5))
					}
				case 2:
					assertExport(gw, at)
				}
			}
			if handoffs == 0 {
				t.Fatal("the sequence never handed a shard off")
			}

			// Left alone, both gateways settle on the delta path: one read
			// each may still bring the view back, the next three replay
			// exactly the writes both gateways made since — and those replays
			// ask nothing of a backend's own views.
			for round := 0; round < 4; round++ {
				for i, gw := range gws() {
					engBefore := backends[0].eng.SnapshotStats()
					engBefore.JournalOverflows = 0 // evictions are the write path's
					before := gw.SnapshotStats()
					write(gw, 10)
					assertExport(gw, fmt.Sprintf("settled round %d gateway %d", round, i+1))
					d := gw.SnapshotStats()
					if round >= 1 && (d.Replays != before.Replays+1 || d.Rebuilds() != before.Rebuilds() || d.ReplayedEdges != before.ReplayedEdges+20) {
						t.Fatalf("settled round %d: gateway %d read after a small write did not replay the 20 edges written since its view was current: %+v → %+v", round, i+1, before, d)
					}
					engAfter := backends[0].eng.SnapshotStats()
					engAfter.JournalOverflows = 0
					if round >= 1 && engAfter != engBefore {
						t.Fatalf("a delta export moved the backend's own views: %+v → %+v", engBefore, engAfter)
					}
				}
			}

			stats[0] = gw1.SnapshotStats()
			stats[1] = addStats(stats[1], gw2.SnapshotStats())
			for i, st := range stats {
				t.Logf("gateway %d: %+v", i+1, st)
				switch {
				case st.Replays == 0 || st.ReplayedEdges == 0:
					t.Fatalf("gateway %d never took the delta path: %+v", i+1, st)
				case st.LocalReplays == 0 || st.LocalReplays == st.Replays:
					t.Fatalf("gateway %d never folded its own writes without asking, or never had to ask: %+v", i+1, st)
				case st.Replays < st.Rebuilds():
					t.Fatalf("gateway %d rebuilt more often than it replayed: %+v", i+1, st)
				case st.RebuildsOverflow == 0:
					t.Fatalf("gateway %d: bursts never outran a journal: %+v", i+1, st)
				case st.RebuildsEpoch == 0:
					t.Fatalf("gateway %d: no restart, import or rotation was noticed: %+v", i+1, st)
				case st.RebuildsBusy != 0 || st.RebuildsNoDelta != 0 || st.RebuildsRotation != 0 || st.RebuildsImport != 0:
					t.Fatalf("gateway %d counted a cause that cannot occur here: %+v", i+1, st)
				case st.GatheredBytes == 0:
					t.Fatalf("gateway %d gathered no bytes: %+v", i+1, st)
				}
			}
			if stats[0].RebuildsFirst != 1 || stats[0].RebuildsRing == 0 {
				t.Fatalf("gateway 1: RebuildsFirst = %d (want 1, the first view), RebuildsRing = %d (want > 0 after a handoff)", stats[0].RebuildsFirst, stats[0].RebuildsRing)
			}
			if want := uint64(handoffs + 1); stats[1].RebuildsFirst != want || stats[1].RebuildsRing != 0 {
				t.Fatalf("gateway 2: RebuildsFirst = %d (want %d, one per incarnation), RebuildsRing = %d (want 0)", stats[1].RebuildsFirst, want, stats[1].RebuildsRing)
			}
		})
	}
}

// TestGatewaySingleFlightRefresh pins the refresh-under-the-lock rule with
// counting backends: eight concurrent first readers after one write share
// one refresh — one request per backend while the view is built, none
// after — and a quiet read asks nothing of anyone.
func TestGatewaySingleFlightRefresh(t *testing.T) {
	ctx := context.Background()
	backends := []*diffBackend{newDiffBackend(t, nil), newDiffBackend(t, nil)}
	opt := Options{}
	opt.Client.MaxRetries = -1
	gw, err := New(&Ring{Version: 1, RouteSeed: 9, Shards: []string{backends[0].ts.URL, backends[1].ts.URL}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gen := &diffStream{rng: rand.New(rand.NewSource(1))}
	exports := func() (n int64) {
		for _, b := range backends {
			n += b.exports.Load()
		}
		return n
	}
	for round := 0; round < 4; round++ { // the first round builds the view, the rest replay
		if err := gw.Ingest(ctx, gen.next(40, 60)); err != nil {
			t.Fatal(err)
		}
		before := exports()
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := gw.Similarity(ctx, 1, 2); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		// Building the view takes every backend's full export. Once it is
		// built, the write itself told the gateway where its edges landed on
		// each backend, so the shared refresh folds them in and asks nobody.
		want := int64(len(backends))
		if round >= 1 {
			want = 0
		}
		if got := exports() - before; got != want {
			t.Fatalf("round %d: 8 concurrent reads after one write made %d export requests, want %d", round, got, want)
		}
		if _, err := gw.TopK(ctx, 1, []vos.User{2, 3}, 2); err != nil {
			t.Fatal(err)
		}
		if got := exports() - before; got != want {
			t.Fatalf("round %d: a quiet read made %d export requests", round, got-want)
		}
	}
	st := gw.SnapshotStats()
	if st.Replays != 3 || st.LocalReplays != 3 || st.Rebuilds() != 1 {
		t.Fatalf("4 refreshes took %d replays (%d asking no backend) and %d rebuilds, want 3 (3) and 1: %+v", st.Replays, st.LocalReplays, st.Rebuilds(), st)
	}

	// The same counters are what vosgw's /v1/stats carries, in the object
	// vosd's carries its engine's in.
	front := httptest.NewServer(server.New(gw, server.Options{}))
	defer front.Close()
	resp, err := http.Get(front.URL + server.RouteStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Snapshot == nil || *wire.Snapshot != st || wire.Snapshot.GatheredBytes == 0 {
		t.Fatalf("/v1/stats snapshot = %+v, want %+v", wire.Snapshot, st)
	}
}

// hideDelta is a service decorator of the kind that hides optional
// interfaces: it forwards the base service and the full export only, which
// makes the backend behind it look like a vosd that predates ?since=.
type hideDelta struct{ vos.SimilarityService }

func (h hideDelta) ExportSketch(ctx context.Context) ([]byte, error) {
	return h.SimilarityService.(vos.StateExporter).ExportSketch(ctx)
}

// TestGatewayMixedVersions: a gateway over one backend with the delta
// export and one without answers bit-identically to a single sketch, takes
// a full gather on every refresh, and counts each under its own cause.
func TestGatewayMixedVersions(t *testing.T) {
	ctx := context.Background()
	neu := newDiffBackend(t, nil)
	old := newDiffBackend(t, nil)
	old.handler.Store(server.New(hideDelta{vos.NewEngineService(old.eng)}, server.Options{}))
	opt := Options{}
	opt.Client.MaxRetries = -1
	gw, err := New(&Ring{Version: 1, RouteSeed: 9, Shards: []string{neu.ts.URL, old.ts.URL}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gen := &diffStream{rng: rand.New(rand.NewSource(2))}
	ref := core.MustNew(diffSketchCfg)
	for round := 0; round < 5; round++ {
		edges := gen.next(30, 60)
		if err := gw.Ingest(ctx, edges); err != nil {
			t.Fatal(err)
		}
		ref.ProcessBatch(edges)
		before := neu.exports.Load() + old.exports.Load()
		got, err := gw.ExportSketch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: export over a backend without the delta export diverges", round)
		}
		// The capable backend's share is the gateway's own write, which its
		// span lets the gateway fold in without asking; the other backend sends
		// no span, so it is asked, and answers in full. A fresh view then needs
		// the capable backend's full export after all: two requests, not four.
		if n := neu.exports.Load() + old.exports.Load() - before; round >= 1 && n != 2 {
			t.Fatalf("round %d: %d export requests, want 2", round, n)
		}
	}
	if st := gw.SnapshotStats(); st.RebuildsFirst != 1 || st.RebuildsNoDelta != 4 || st.Replays != 0 || st.Rebuilds() != 5 {
		t.Fatalf("5 refreshes over a backend without the delta export: %+v", st)
	}
}

// assertSame fails unless the gateway's export is byte-identical to ref's.
func assertSame(t *testing.T, gw *Gateway, ref *core.VOS, at string) {
	t.Helper()
	got, err := gw.ExportSketch(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: gateway export diverges from a single sketch of the same stream", at)
	}
}

// TestGatewayHeldViewTakesSpare: a read that finds a reader on the published
// view brings the spare forward instead. The slot logs were trimmed to the
// published view as it was brought forward in place, so the spare asks each
// backend for its journal suffix — one delta request a backend, never a full
// export — and reads exact.
func TestGatewayHeldViewTakesSpare(t *testing.T) {
	ctx := context.Background()
	backends := []*diffBackend{newDiffBackend(t, nil), newDiffBackend(t, nil)}
	opt := Options{}
	opt.Client.MaxRetries = -1
	gw, err := New(&Ring{Version: 1, RouteSeed: 9, Shards: []string{backends[0].ts.URL, backends[1].ts.URL}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gen := &diffStream{rng: rand.New(rand.NewSource(4))}
	ref := core.MustNew(diffSketchCfg)
	exports := func() (n int64) {
		for _, b := range backends {
			n += b.exports.Load()
		}
		return n
	}
	// round writes 20 edges and reads them back, and returns how the read
	// moved the counters and how many export requests it made.
	round := func(at string) (vos.SnapshotStats, int64) {
		t.Helper()
		edges := gen.next(20, 60)
		if err := gw.Ingest(ctx, edges); err != nil {
			t.Fatal(err)
		}
		ref.ProcessBatch(edges)
		before, asked := gw.SnapshotStats(), exports()
		assertSame(t, gw, ref, at)
		d := gw.SnapshotStats()
		return vos.SnapshotStats{
			Replays:       d.Replays - before.Replays,
			ReplayedEdges: d.ReplayedEdges - before.ReplayedEdges,
			LocalReplays:  d.LocalReplays - before.LocalReplays,
			RebuildsFirst: d.RebuildsFirst - before.RebuildsFirst,
			RebuildsBusy:  d.RebuildsBusy - before.RebuildsBusy,
		}, exports() - asked
	}
	if d, n := round("first view"); d.RebuildsFirst != 1 || n != 2 {
		t.Fatalf("first view: %+v, %d export requests", d, n)
	}
	// With a reader on the only view, the read builds a second one.
	parked, err := gw.acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d, n := round("second view"); d.RebuildsBusy != 1 || n != 2 {
		t.Fatalf("second view: %+v, %d export requests", d, n)
	}
	parked.Release()
	// Nobody holds the published view: it folds each write in place.
	for i := 0; i < 2; i++ {
		if d, n := round("in place"); d.Replays != 1 || d.LocalReplays != 1 || d.ReplayedEdges != 20 || n != 0 {
			t.Fatalf("in place: %+v, %d export requests", d, n)
		}
	}
	// A reader on it now: the spare, four writes behind, folds them all
	// from its backends' journals.
	if parked, err = gw.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	d, n := round("spare")
	parked.Release()
	if d.Replays != 1 || d.LocalReplays != 0 || d.ReplayedEdges != 80 || d.RebuildsBusy != 0 || n != 2 {
		t.Fatalf("spare: %+v, %d export requests, want one 80-edge replay from 2 delta requests", d, n)
	}
}

// TestGatewayFoldsConcurrentIngests: one gateway, writers and readers at
// once, and an outsider writing straight to the backends. Each writer owns a
// user on each backend and, after every acknowledged Ingest, reads both
// users' cardinalities off the merged view: they must count every edge the
// writer has had acknowledged, whether the refresh folded the spans in or
// asked the backends (concurrent writes interleave on a backend's shards, so
// many spans come back empty or out of order, and the outsider's never show
// in the gateway's logs at all). Once quiet, the gateway is bit-identical to
// one sketch of every edge written. Run under -race.
func TestGatewayFoldsConcurrentIngests(t *testing.T) {
	const writers, rounds, noise = 4, 60, 30
	ctx := context.Background()
	backends := []*diffBackend{newDiffBackend(t, nil), newDiffBackend(t, nil)}
	opt := Options{}
	opt.Client.MaxRetries = -1
	ring := &Ring{Version: 1, RouteSeed: 9, Shards: []string{backends[0].ts.URL, backends[1].ts.URL}}
	gw, err := New(ring, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	var mu sync.Mutex
	ref := core.MustNew(diffSketchCfg)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ { // readers that only refresh
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := gw.TopK(ctx, 1000, []vos.User{1001, 1002, 1003}, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var writing sync.WaitGroup
	writing.Add(1)
	go func() { // the outsider: a span racing its writes must not name them as the gateway's
		defer writing.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < writers*rounds; i++ {
			slot := i % 2
			var edges []vos.Edge
			for u := vos.User(rng.Intn(60)); len(edges) < 8; u = (u + 1) % 60 {
				if ring.ShardOf(u) == slot {
					edges = append(edges, vos.Edge{User: u, Item: 1<<50 | vos.Item(i)<<8 | vos.Item(len(edges)), Op: vos.Insert})
				}
			}
			mu.Lock()
			ref.ProcessBatch(edges)
			mu.Unlock()
			if err := backends[slot].eng.ProcessBatch(edges); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var own [2]vos.User // a user of each slot, so every write reaches both
			for u := vos.User(1000 + 64*w); own[0] == 0 || own[1] == 0; u++ {
				own[ring.ShardOf(u)] = u
			}
			for i := 0; i < rounds; i++ {
				edges := []vos.Edge{{User: own[0], Item: vos.Item(i), Op: vos.Insert}, {User: own[1], Item: vos.Item(i), Op: vos.Insert}}
				for j := 0; j < 1+rng.Intn(noise); j++ {
					edges = append(edges, vos.Edge{User: vos.User(rng.Intn(60)), Item: vos.Item(w)<<40 | vos.Item(i)<<20 | vos.Item(j), Op: vos.Insert})
				}
				if err := gw.Ingest(ctx, edges); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				ref.ProcessBatch(edges)
				mu.Unlock()
				est, err := gw.Similarity(ctx, own[0], own[1])
				if err != nil {
					t.Error(err)
					return
				}
				if est.CardinalityU != int64(i+1) || est.CardinalityV != int64(i+1) {
					t.Errorf("writer %d: a read after its acknowledged write %d counts %d and %d of its edges", w, i+1, est.CardinalityU, est.CardinalityV)
					return
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := gw.Ingest(ctx, []vos.Edge{{User: 1, Item: 1, Op: vos.Insert}, {User: 2, Item: 1, Op: vos.Insert}}); err != nil {
		t.Fatal(err)
	}
	ref.ProcessBatch([]vos.Edge{{User: 1, Item: 1, Op: vos.Insert}, {User: 2, Item: 1, Op: vos.Insert}})
	assertSame(t, gw, ref, "quiet")
	st := gw.SnapshotStats()
	t.Logf("%+v", st)
	if st.Replays == 0 {
		t.Fatalf("no refresh replayed: %+v", st)
	}
}

// TestGatewayFaultFallback: a forward whose landing the gateway cannot know
// — the backend applied the batch and then answered 500, or its answer was
// lost, or its service hides the span — makes the next read ask that backend
// instead of folding, and the read stays exact; once the view has been
// asked past the fault, the next read folds again where it can.
func TestGatewayFaultFallback(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		fault int32
		hide  bool
	}{
		{"applied then 500", applyThen500, false},
		{"applied then dropped", applyThenDrop, false},
		{"span hidden", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad, good := newDiffBackend(t, nil), newDiffBackend(t, nil)
			if tc.hide {
				bad.handler.Store(server.New(hideDelta{vos.NewEngineService(bad.eng)}, server.Options{}))
			}
			opt := Options{}
			opt.Client.MaxRetries = -1
			ring := &Ring{Version: 1, RouteSeed: 9, Shards: []string{bad.ts.URL, good.ts.URL}}
			gw, err := New(ring, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			gen := &diffStream{rng: rand.New(rand.NewSource(3))}
			ref := core.MustNew(diffSketchCfg)
			write := func() error {
				edges := gen.next(40, 60)
				hits := 0
				for _, ed := range edges {
					if ring.ShardOf(ed.User) == 0 {
						hits++
					}
				}
				if hits == 0 || hits == len(edges) {
					t.Fatal("the write does not reach both backends")
				}
				ref.ProcessBatch(edges) // applied either way: the faults strike after the apply
				return gw.Ingest(ctx, edges)
			}
			for round := 0; round < 6; round++ {
				armed := round == 3
				if armed {
					bad.fault.Store(tc.fault)
				}
				err := write()
				if armed && tc.fault != 0 && err == nil {
					t.Fatal("a forward that failed was acknowledged")
				} else if (!armed || tc.fault == 0) && err != nil {
					t.Fatal(err)
				}
				before, st := bad.exports.Load(), gw.SnapshotStats()
				assertSame(t, gw, ref, fmt.Sprintf("%s, round %d", tc.name, round))
				asked := bad.exports.Load() > before
				local := gw.SnapshotStats().LocalReplays > st.LocalReplays
				switch {
				case round < 1: // the view is being built
				case armed || tc.hide:
					if !asked || local {
						t.Fatalf("round %d: the read after an unknown landing asked the backend: %v, folded locally: %v", round, asked, local)
					}
				case round > 3 && !tc.hide: // the view has asked past the fault
					if asked || !local {
						t.Fatalf("round %d: a clean write after the fault was not folded locally (asked: %v)", round, asked)
					}
				}
			}
		})
	}
}
