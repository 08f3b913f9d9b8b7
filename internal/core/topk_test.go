package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/cpu"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/poscache"
	"github.com/vossketch/vos/internal/stream"
)

// better is the top-K order written out on its own, so that the reference
// rankings the tests sort with do not share the code they check: higher
// Ĵ first, ties broken by smaller user ID.
func better(a, b TopKResult) bool {
	if a.Estimate.Jaccard != b.Estimate.Jaccard {
		return a.Estimate.Jaccard > b.Estimate.Jaccard
	}
	return a.User < b.User
}

// withFanOut runs fn with every helper GOMAXPROCS allows forced on.
func withFanOut(procs int, fn func()) {
	prevProcs := runtime.GOMAXPROCS(procs)
	prevForce := forceFanOut
	forceFanOut = true
	defer func() {
		forceFanOut = prevForce
		runtime.GOMAXPROCS(prevProcs)
	}()
	fn()
}

// TestTopKFanOutMatchesSortedQueries pins the fan-out's answer to the
// definition of top-K: per-pair Query estimates, the probe skipped, sorted
// by RankBefore and cut to n — whatever the number of participants, the
// cache state each candidate is scored from, the shape of the candidate
// list and n.
func TestTopKFanOutMatchesSortedQueries(t *testing.T) {
	v, users := materializedWorkload(t, Config{MemoryBits: 1 << 16, SketchBits: 128, Seed: 9})
	probe := users[3]
	// A universe past the 80 users with data: the rest have cardinality
	// zero, which is an estimate too.
	universe := make([]stream.User, 1200)
	for i := range universe {
		universe[i] = stream.User(i)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	cycled := make([]stream.User, 4289)
	for i := range cycled {
		cycled[i] = universe[i%len(universe)]
	}
	lists := []struct {
		name  string
		cands []stream.User
	}{
		{"empty", nil},
		{"one", []stream.User{users[5]}},
		{"probe-included", append(append([]stream.User{}, users[:12]...), probe, users[40])},
		{"duplicates", []stream.User{7, 7, 9, probe, 9, 7, 11, 7, 9, 9, 11, 7, 7, 13, 9, 11, 7}},
		{"7", universe[:7]},
		{"64", universe[:64]},
		{"1000", universe[:1000]},
		{"4289", cycled},
	}

	v.SetPositionCache(nil)
	v.SetRecoveredCacheCapacity(-1)
	ref := make(map[stream.User]Estimate, len(universe))
	for _, w := range universe {
		ref[w] = v.Query(probe, w)
	}
	ranked := make([][]TopKResult, len(lists))
	for i, l := range lists {
		for _, w := range l.cands {
			if w != probe {
				ranked[i] = append(ranked[i], TopKResult{User: w, Estimate: ref[w]})
			}
		}
		sort.Slice(ranked[i], func(a, b int) bool { return RankBefore(ranked[i][a], ranked[i][b]) })
	}

	// Each cache state prepares the sketch for one call over cands.
	caches := []struct {
		name    string
		prepare func(cands []stream.User)
	}{
		{"rec-off", func([]stream.User) { v.SetRecoveredCacheCapacity(-1) }},
		{"rec-cold", func([]stream.User) { v.SetRecoveredCacheCapacity(0) }},
		{"rec-warm", func(cands []stream.User) {
			v.SetRecoveredCacheCapacity(0)
			r := v.RecoverSketch(probe)
			for _, w := range cands {
				v.QueryRecovered(r, w)
			}
		}},
		{"rec-half-warm", func(cands []stream.User) {
			v.SetRecoveredCacheCapacity(0)
			for i := 0; i < len(cands); i += 2 {
				v.RecoverSketch(cands[i])
			}
		}},
	}
	for _, procs := range []int{1, 2, 4, 64} {
		for _, posCache := range []bool{false, true} {
			for _, c := range caches {
				name := fmt.Sprintf("procs=%d/poscache=%v/%s", procs, posCache, c.name)
				t.Run(name, func(t *testing.T) {
					withFanOut(procs, func() {
						v.SetPositionCache(nil)
						if posCache {
							v.SetPositionCache(poscache.New(256))
						}
						for li, l := range lists {
							for _, n := range []int{0, 1, 10, len(l.cands), len(l.cands) + 5} {
								c.prepare(l.cands)
								got := v.TopKRecovered(v.RecoverSketch(probe), l.cands, n)
								w := ranked[li][:min(n, len(ranked[li]))]
								if len(got) != len(w) {
									t.Fatalf("%s n=%d: %d results, want %d", l.name, n, len(got), len(w))
								}
								for i := range w {
									if got[i] != w[i] {
										t.Fatalf("%s n=%d rank %d: got {%d %+v}, want {%d %+v}",
											l.name, n, i, got[i].User, got[i].Estimate, w[i].User, w[i].Estimate)
									}
								}
							}
						}
					})
				})
			}
		}
	}
}

// TestTopKHelpersNeverOutliveTheCall pins the fan-out's lifetime rule: a
// call cancelled while its helpers are scoring returns ctx.Err(), and no
// helper reads the sketch after it returns — the write that follows the
// call is a race under -race if one does — and every helper goroutine
// exits, so the goroutine count settles back to where it was.
func TestTopKHelpersNeverOutliveTheCall(t *testing.T) {
	v := MustNew(Config{MemoryBits: 1 << 20, SketchBits: 4096, Seed: 3})
	for u := stream.User(0); u < 200; u++ {
		for i := 0; i < 20; i++ {
			v.Process(stream.Edge{User: u, Item: stream.Item(int(u)*100 + i), Op: stream.Insert})
		}
	}
	// Cold on purpose: without caches every candidate is k hashes and k
	// probes, so the scan runs far longer than the cancel takes to land.
	v.SetRecoveredCacheCapacity(-1)
	candidates := make([]stream.User, 20_000)
	for i := range candidates {
		candidates[i] = stream.User(i)
	}
	withFanOut(4, func() {
		base := runtime.NumGoroutine()
		for round := 0; round < 5; round++ {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				// Cancel once a helper is running beside the caller.
				deadline := time.Now().Add(10 * time.Second)
				for runtime.NumGoroutine() < base+2 && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				time.Sleep(time.Duration(round) * 200 * time.Microsecond)
				cancel()
			}()
			got, err := v.TopKRecoveredContext(ctx, v.RecoverSketch(1), candidates, 10)
			if !errors.Is(err, context.Canceled) || got != nil {
				t.Fatalf("round %d: cancelled mid-fan-out scan returned %d results, err %v; want context.Canceled", round, len(got), err)
			}
			// Every word of the array, written right after the return: a
			// helper still scoring reads some of them.
			for u := stream.User(0); u < 32; u++ {
				v.Process(stream.Edge{User: u, Item: stream.Item(1<<30 + round), Op: stream.Insert})
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after every call returned, %d before", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}

		// A context cancelled before the call starts no helper at all.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := v.TopKRecoveredContext(ctx, v.RecoverSketch(1), candidates, 10); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled scan returned %v, want context.Canceled", err)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("pre-cancelled scan left %d goroutines, %d before", g, base)
		}
	})
}

// TestTopKHitPathMatchesReference pins the scan that ranks by Ĵ alone and
// builds estimates for the winners only to per-pair scalar queries and a
// full sort, bit for bit: scans whose candidates all hit the
// recovered-sketch cache, all miss it, or alternate, with the probe among
// the candidates, for n from none to more than there are, sequential and
// fanned out, on the dispatched kernels and on their Go loops alone.
func TestTopKHitPathMatchesReference(t *testing.T) {
	t.Run("dispatched", testTopKHitPathMatchesReference)
	defer cpu.GoLoopsOnly()()
	t.Run("go", testTopKHitPathMatchesReference)
}

func testTopKHitPathMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{MemoryBits: 1 << 16, SketchBits: 200, Seed: 9},
		{MemoryBits: 100_003, SketchBits: 64, Seed: 9, Family: hashing.KindFast},
	} {
		v, users := materializedWorkload(t, cfg)
		probe := users[3]
		// The users with data, the probe among them, and a few past them,
		// whose cardinality is zero.
		cands := append(append([]stream.User{}, users...), 80, 81, 82)
		ns := []int{0, 1, 10, len(cands) + 5}
		want := make([][]TopKResult, len(ns))
		for i, n := range ns {
			want[i] = topKReference(v, probe, cands, n)
		}
		states := []struct {
			name string
			warm int // every warm-th candidate is cached before the scan; 0: none
		}{{"all-hit", 1}, {"all-cold", 0}, {"mixed", 2}}
		for _, fan := range []bool{false, true} {
			for _, st := range states {
				name := fmt.Sprintf("k=%d/fanout=%v/%s", cfg.SketchBits, fan, st.name)
				t.Run(name, func(t *testing.T) {
					run := func() {
						for i, n := range ns {
							v.SetRecoveredCacheCapacity(0)
							r := v.RecoverSketch(probe)
							for j := 0; st.warm > 0 && j < len(cands); j += st.warm {
								v.RecoverSketch(cands[j])
							}
							before, _ := v.RecoveredCacheStats()
							got := v.TopKRecovered(r, cands, n)
							after, _ := v.RecoveredCacheStats()
							if st.warm == 1 && n > 0 && after.Misses != before.Misses {
								t.Fatalf("n=%d: %d misses in an all-hit scan", n, after.Misses-before.Misses)
							}
							if len(got) != len(want[i]) {
								t.Fatalf("n=%d: %d results, want %d", n, len(got), len(want[i]))
							}
							for j, w := range want[i] {
								if got[j].User != w.User || !sameEstimate(got[j].Estimate, w.Estimate) {
									t.Fatalf("n=%d rank %d: got {%d %+v}, want {%d %+v}",
										n, j, got[j].User, got[j].Estimate, w.User, w.Estimate)
								}
							}
						}
					}
					if fan {
						withFanOut(4, run)
					} else {
						run()
					}
				})
			}
		}
	}
}
