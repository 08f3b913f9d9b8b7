package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/clock"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/lsh"
	"github.com/vossketch/vos/internal/stream"
)

// collisionFreeSketch searches seeds for a sketch config under which no two
// (user, slot) pairs of the population share an array position. On such a
// config a write flips a bit of its own user's recovered sketch and of
// nobody else's, so the band keys a journal-following index holds must
// EQUAL the keys of a full recovery, not just collide as often.
func collisionFreeSketch(t *testing.T, fam hashing.Kind, users int) core.Config {
	t.Helper()
	for seed := uint64(1); seed < 5000; seed++ {
		cfg := core.Config{MemoryBits: 1 << 20, SketchBits: 128, Seed: seed, Family: fam}
		sk := core.MustNew(cfg)
		taken := make(map[uint64]bool, users*cfg.SketchBits)
		free := true
		for u := 0; u < users && free; u++ {
			for _, pos := range sk.Positions(stream.User(u)) {
				if taken[pos] {
					free = false
					break
				}
				taken[pos] = true
			}
		}
		if free {
			return cfg
		}
	}
	t.Fatal("no collision-free seed found")
	return core.Config{}
}

// dropUser unsubscribes u from everything it still holds.
func (g *diffEdges) dropUser(u stream.User) []stream.Edge {
	var out []stream.Edge
	kept := g.live[:0]
	for _, ed := range g.live {
		if ed.User != u {
			kept = append(kept, ed)
			continue
		}
		ed.Op = stream.Delete
		out = append(out, ed)
	}
	g.live = kept
	return out
}

// annMembers is the set of users the index currently bands.
func annMembers(e *Engine) map[stream.User]bool {
	out := map[stream.User]bool{}
	e.ann.ix.ForEachMember(func(u stream.User) bool {
		out[u] = true
		return true
	})
	return out
}

// assertANNEqualsView requires the band index to be exactly the banding of
// sk, the view the last probe ran on: its members the users of nonzero
// cardinality, and every member's stored keys the keys of its full recovery.
func assertANNEqualsView(t *testing.T, e *Engine, sk *core.VOS, at string) {
	t.Helper()
	p := e.ann.ix.Params()
	users := 0
	sk.ForEachUser(func(u stream.User, _ int64) bool {
		users++
		want, err := lsh.BandKeys(p, sk.RecoverSketch(u).Words(), sk.K())
		if err != nil {
			t.Fatal(err)
		}
		got := e.ann.ix.Keys(u)
		if got == nil {
			t.Fatalf("%s: user %d has cardinality %d and is not banded", at, u, sk.Cardinality(u))
		}
		for band := range want {
			if got[band] != want[band] {
				t.Fatalf("%s: user %d band %d holds key %x, its recovery says %x", at, u, band, got[band], want[band])
			}
		}
		return true
	})
	if n := e.ann.ix.Len(); n != users {
		t.Fatalf("%s: %d users banded, %d have nonzero cardinality", at, n, users)
	}
}

// TestANNDifferential is TestSnapshotDifferential for the approximate top-K
// index: a seeded interleaving of everything that moves the index or the
// state under it — small writes, bursts past the journal bound,
// unsubscribes to zero and re-subscribes, ImportSketch, window rotations,
// lagged views, budget-limited and unflushed probes — on a collision-free
// config, where following the journals band by band must leave exactly the
// index a full re-banding would. Whenever a probe leaves no backlog the
// index is compared with the view that probe held; the counters then show
// that small writes took the re-key path and that each whole-user fallback
// (new member, rotation, new base, spill) was met on the way. Besides 7
// bands of 16 rows, each shape runs once with a band two words wide.
func TestANNDifferential(t *testing.T) {
	const users = 20
	narrow, wide := ANNConfig{Bands: 7, Rows: 16}, ANNConfig{Bands: 1, Rows: 100}
	for _, fam := range []hashing.Kind{hashing.KindClassic, hashing.KindFast} {
		sketch := collisionFreeSketch(t, fam, users)
		for _, shape := range []string{"plain", "lagged", "windowed"} {
			for _, tc := range []struct {
				shards int
				band   ANNConfig
			}{{1, narrow}, {2, narrow}, {4, narrow}, {1, wide}, {2, wide}, {4, wide}} {
				shards, band := tc.shards, tc.band
				name := fmt.Sprintf("%v/%s/shards=%d", fam, shape, shards)
				if band != narrow {
					name += fmt.Sprintf("/bands=%dx%d", band.Bands, band.Rows)
				}
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(shape))*100 + int64(shards)))
					gen := &diffEdges{rng: rng, users: users - 1} // the last joins in the tail
					cfg := Config{
						Sketch: sketch, Shards: shards, BatchSize: 16, Clock: clock.NewManual(time.Unix(1000, 0)),
						// Bands·Rows < SketchBits: some writes land outside the banded bits.
						ANN: &ANNConfig{Bands: band.Bands, Rows: band.Rows, RebandBudget: -1},
					}
					now := time.Unix(1000, 0)
					switch shape {
					case "windowed":
						// The clock is pinned: only AdvanceWindowTo rotates.
						cfg.Window = &WindowConfig{Buckets: 3, BucketDuration: time.Second}
					}
					e, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					a := e.ann
					// On the lagged shape probes stay on the view they hold until
					// the shards are more than a journal bound each past it, so
					// a view can lag behind evicted batches; on the others a
					// probe's view is the present.
					var held *view
					defer func() {
						if held != nil {
							held.Release()
						}
					}()
					dropHeld := func() {
						if held != nil {
							held.Release()
							held = nil
						}
					}
					probeView := func() *view {
						if held != nil {
							lag := uint64(0)
							for i, s := range e.shards {
								lag += s.processed.Load() - held.Stamp.at[i]
							}
							if held.Stamp.gen == e.imports.Load() && lag <= 1500*uint64(shards) {
								return held
							}
							dropHeld()
						}
						v := e.acquire()
						if shape == "lagged" {
							held = v
						} else {
							v.Release() // unwritten while the writers are quiet: only its stamp and sketch are read
						}
						return v
					}
					write := func(edges []stream.Edge) {
						t.Helper()
						if err := e.ProcessBatch(edges); err != nil {
							t.Fatal(err)
						}
					}

					// What has happened since the last probe that left no backlog.
					var (
						drained       = false // that probe exists and nothing whole-user is owed
						wholeCause    = false // a rotation or an import since
						sawRekeyOnly  = false // a probe after small writes re-banded new members only
						sawNewMember  = false
						sawNewBase    = false
						sawRotation   = false
						sawSpill      = false
						sawLaggedView = false
					)
					probe := func(at string, budget int, flushed bool) {
						t.Helper()
						a.mu.Lock()
						a.cfg.RebandBudget = budget
						a.mu.Unlock()
						var probed *core.VOS
						if flushed { // then this is the view the probe is about to get
							v := probeView()
							probed = v.Sk
							for i, s := range e.shards {
								s.jMu.Lock()
								sawLaggedView = sawLaggedView || v.Stamp.at[i] < s.jFrom
								s.jMu.Unlock()
							}
						}
						before, _ := e.ANNStats()
						was := annMembers(e)
						var err error
						if u := stream.User(rng.Intn(users)); shape == "lagged" {
							_, err = e.topKApproxOn(context.Background(), a, probeView(), u, 5)
						} else {
							_, err = e.TopKApprox(u, 5)
						}
						if err != nil {
							t.Fatal(err)
						}
						after, _ := e.ANNStats()
						joined := 0
						for u := range annMembers(e) {
							if !was[u] {
								joined++
							}
						}
						rebands := int(after.Rebands - before.Rebands)
						fellBack := after.JournalFallbacks != before.JournalFallbacks
						if fellBack != (after.SpilledUsers != before.SpilledUsers) && shape != "lagged" && flushed {
							// (A view behind the evictions, lagged or cut while the
							// workers run on, may leave every spilled user for later.)
							t.Fatalf("%s: fallbacks and spilled users disagree: %+v -> %+v", at, before, after)
						}
						switch {
						case fellBack:
							sawSpill = true
							if rebands > users {
								t.Fatalf("%s: a spill re-banded %d of %d users", at, rebands, users)
							}
						case drained && !wholeCause && before.Indexed > 0:
							// Only journal ranges were read: whole re-bandings are
							// exactly the users the index did not hold yet.
							if rebands != joined {
								t.Fatalf("%s: %d whole re-bandings for %d new members after small writes", at, rebands, joined)
							}
							sawNewMember = sawNewMember || joined > 0
							sawRekeyOnly = sawRekeyOnly || after.BandRekeys > before.BandRekeys
						}
						if drained = after.DirtyBacklog == 0; drained {
							wholeCause = false
							if flushed { // else the workers are moving the view on already
								assertANNEqualsView(t, e, probed, at)
							}
						}
					}

					// current brings the view to the present and works everything
					// off against it.
					current := func(at string) {
						t.Helper()
						e.Flush()
						dropHeld()
						for i := 0; i < 5; i++ {
							probe(at, -1, true)
						}
						if !drained {
							t.Fatalf("%s: backlog does not drain against a current view", at)
						}
					}

					for op := 0; op < 400; op++ {
						at := fmt.Sprintf("op %d", op)
						switch k := rng.Intn(16); {
						case k < 5:
							write(gen.next(1 + rng.Intn(40)))
						case k == 5: // a burst of 1.1 to 4 journal bounds a shard
							write(gen.next((11 + rng.Intn(30)) * int(e.journalMax) * shards / 10))
						case k == 6:
							write(gen.dropUser(stream.User(rng.Intn(users))))
						case k < 10:
							e.Flush()
							probe(at, -1, true)
						case k == 10:
							e.Flush()
							probe(at, 1, true)
						case k == 11:
							current(at)
						case k == 12:
							if cfg.Window != nil {
								now = now.Add(time.Duration(300+rng.Intn(900)) * time.Millisecond)
								e.Flush()
								if e.AdvanceWindowTo(now) > 0 {
									wholeCause, sawRotation = true, true
								}
								continue
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
							wholeCause, sawNewBase = true, true
						case k == 13: // whatever prefix the workers have applied
							probe(at, -1, false)
						default: // a read that moves the views without the index
							e.Flush()
							e.Query(stream.User(rng.Intn(users)), stream.User(rng.Intn(users)))
						}
					}

					// A scripted tail, so that the rarest path is met whatever the
					// seed drew: a user nobody has written yet joins with a small
					// write to a drained index.
					current("tail")
					sawNewMember = false
					write([]stream.Edge{{User: users - 1, Item: 1, Op: stream.Insert}, {User: users - 1, Item: 2, Op: stream.Insert}})
					current("tail: a new user")

					if cfg.Window != nil {
						// Rotated, unread: several journal bounds land after a
						// rotation with no probe between. The probe that follows
						// owes everyone a re-banding whatever it finds, so the
						// workers spill nobody — and it still leaves exactly the
						// index a build from scratch would.
						rotate := func() {
							t.Helper()
							now = now.Add(time.Second)
							e.Flush()
							if e.AdvanceWindowTo(now) == 0 {
								t.Fatal("no rotation")
							}
							wholeCause = true
						}
						unspilled := func(at string, before ANNStats, unread bool) {
							t.Helper()
							for i, s := range e.shards {
								s.jMu.Lock()
								spilled, evicted := len(s.annSpill), s.jFrom
								s.jMu.Unlock()
								if spilled != 0 || unread != (evicted > a.read.at[i]) {
									t.Fatalf("%s: shard %d evicted up to %d, the index read up to %d, %d users spilled", at, i, evicted, a.read.at[i], spilled)
								}
							}
							if st, _ := e.ANNStats(); st.SpilledUsers != before.SpilledUsers || st.JournalFallbacks != before.JournalFallbacks {
								t.Fatalf("%s: spill counters moved: %+v -> %+v", at, before, st)
							}
						}
						burst := func() { write(gen.next(3 * int(e.journalMax) * shards)) }
						before, _ := e.ANNStats()
						rotate()
						burst()
						burst()
						e.Flush()
						unspilled("rotated, unread", before, true)
						probe("rotated, unread", -1, true)
						if !drained {
							t.Fatal("rotated, unread: the probe left a backlog")
						}
						unspilled("rotated, unread: after the probe", before, false)

						// Lagged: the view that probes after the rotation was cut
						// before a burst the workers evicted unspilled, so it cannot
						// settle what the burst wrote; the probe after it is whole too.
						rotate()
						write(gen.next(10))
						e.Flush()
						lagged := e.acquire()
						burst()
						e.Flush()
						unspilled("lagged", before, true)
						if _, err := e.topKApproxOn(context.Background(), a, lagged, 0, 5); err != nil {
							t.Fatal(err)
						}
						assertANNEqualsView(t, e, lagged.Sk, "lagged")
						lagged.Release()
						mid, _ := e.ANNStats()
						if mid.DirtyBacklog == 0 {
							t.Fatalf("lagged: nothing owed after a probe on a view behind unspilled evictions: %+v", mid)
						}
						probe("lagged: the following probe", -1, true)
						live := 0
						for u := range annMembers(e) {
							if e.Cardinality(u) != 0 {
								live++
							}
						}
						after, _ := e.ANNStats()
						if got := int(after.Rebands - mid.Rebands); got != live || !drained {
							t.Fatalf("lagged: the following probe re-banded %d of %d users (backlog %d)", got, live, after.DirtyBacklog)
						}
						unspilled("lagged: after the following probe", before, false)
					}

					st, _ := e.ANNStats()
					t.Logf("%+v", st)
					if !sawRekeyOnly || st.BandRekeys == 0 {
						t.Fatalf("small writes never took the re-key path: %+v", st)
					}
					if !sawNewMember {
						t.Fatal("no probe met a new member after small writes")
					}
					if !sawSpill || st.JournalFallbacks == 0 || st.SpilledUsers == 0 {
						t.Fatalf("no burst was read from the spill set: %+v", st)
					}
					if sawRotation != (cfg.Window != nil) || (st.Rotations > 0) != sawRotation {
						t.Fatalf("Rotations = %d on a %s engine", st.Rotations, shape)
					}
					if sawNewBase != (cfg.Window == nil) {
						t.Fatalf("new base seen = %v on a %s engine", sawNewBase, shape)
					}
					if sawLaggedView != (shape == "lagged") {
						t.Fatal("no view ever lagged behind a journal's start")
					}
				})
			}
		}
	}
}
