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
// fixed URL (a restart) and whose sketch exports are counted.
type diffBackend struct {
	ts      *httptest.Server
	handler atomic.Pointer[server.Server]
	eng     *vos.Engine
	cfg     vos.EngineConfig
	dir     string
	exports atomic.Int64
}

func (b *diffBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == server.RouteClusterSketch {
		b.exports.Add(1)
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
						win.ProcessBatch([]vos.Edge{ed})
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

			// Left alone, both gateways settle on the delta path: two reads
			// each may still bring a view back, the next two replay exactly
			// the writes both gateways made since — and those replays ask
			// nothing of a backend's own views.
			for round := 0; round < 4; round++ {
				for i, gw := range gws() {
					engBefore := backends[0].eng.SnapshotStats()
					engBefore.JournalOverflows = 0 // evictions are the write path's
					before := gw.SnapshotStats()
					write(gw, 10)
					assertExport(gw, fmt.Sprintf("settled round %d gateway %d", round, i+1))
					d := gw.SnapshotStats()
					if round >= 2 && (d.Replays != before.Replays+1 || d.Rebuilds() != before.Rebuilds() || d.ReplayedEdges != before.ReplayedEdges+40) {
						t.Fatalf("settled round %d: gateway %d read after a small write did not replay the 40 edges written since its spare was current: %+v → %+v", round, i+1, before, d)
					}
					engAfter := backends[0].eng.SnapshotStats()
					engAfter.JournalOverflows = 0
					if round >= 2 && engAfter != engBefore {
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
			if stats[0].RebuildsFirst != 2 || stats[0].RebuildsRing == 0 {
				t.Fatalf("gateway 1: RebuildsFirst = %d (want 2, one per view), RebuildsRing = %d (want > 0 after a handoff)", stats[0].RebuildsFirst, stats[0].RebuildsRing)
			}
			if want := uint64(2 * (handoffs + 1)); stats[1].RebuildsFirst != want || stats[1].RebuildsRing != 0 {
				t.Fatalf("gateway 2: RebuildsFirst = %d (want %d, two per incarnation), RebuildsRing = %d (want 0)", stats[1].RebuildsFirst, want, stats[1].RebuildsRing)
			}
		})
	}
}

// TestGatewaySingleFlightRefresh pins the refresh-under-the-lock rule with
// counting backends: eight concurrent first readers after one write share
// one request per backend, and a quiet read asks nothing of anyone.
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
	for round := 0; round < 4; round++ { // the first two rounds build the views, the rest replay
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
		if got := exports() - before; got != int64(len(backends)) {
			t.Fatalf("round %d: 8 concurrent reads after one write made %d export requests, want one per backend", round, got)
		}
		if _, err := gw.TopK(ctx, 1, []vos.User{2, 3}, 2); err != nil {
			t.Fatal(err)
		}
		if got := exports() - before; got != int64(len(backends)) {
			t.Fatalf("round %d: a quiet read made %d export requests", round, got-int64(len(backends)))
		}
	}
	st := gw.SnapshotStats()
	if st.Replays != 2 || st.Rebuilds() != 2 {
		t.Fatalf("4 refreshes took %d replays and %d rebuilds, want 2 and 2: %+v", st.Replays, st.Rebuilds(), st)
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
		// The delta a capable backend sent is of no use next to a full
		// export, so it is asked once more, in full: three requests, not four.
		if n := neu.exports.Load() + old.exports.Load() - before; round >= 2 && n != 3 {
			t.Fatalf("round %d: %d export requests, want 3", round, n)
		}
	}
	if st := gw.SnapshotStats(); st.RebuildsFirst != 2 || st.RebuildsNoDelta != 3 || st.Replays != 0 || st.Rebuilds() != 5 {
		t.Fatalf("5 refreshes over a backend without the delta export: %+v", st)
	}
}
