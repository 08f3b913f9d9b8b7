package engine

import (
	"math/rand"
	"testing"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/lsh"
	"github.com/vossketch/vos/internal/stream"
)

// TestANNIncrementalRecall pins the claim the journal-following index rests
// on: bits that OTHER users' writes flip under a member are not tracked, and
// need not be. On a shared array small enough that such noise is constant,
// an index maintained band by band through hundreds of probed writes — no
// rotation, no fallback, so nothing ever re-bands a member whole — must find
// what an index rebuilt from scratch on the final state finds. The regime is
// deliberately one where the rebuilt index misses a good part of the exact
// top 10: at recall near 1 or near 0 any index would pass.
func TestANNIncrementalRecall(t *testing.T) {
	const (
		seeds, writes, writeEdges = 6, 300, 256
		clusters, members         = 30, 10
		size, common              = 100, 70
		topN                      = 10
	)
	users := clusters * members
	var maintained, rebuilt float64
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Sketch: core.Config{MemoryBits: 1 << 18, SketchBits: 512, Seed: uint64(seed)},
			Shards: 2,
			ANN:    &ANNConfig{Bands: 24, Rows: 10},
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Every member of a cluster holds the cluster's common items and a
		// private tail; writes replace tail items, so similarities hold
		// still while every user's sketch — and the noise under everyone
		// else's — keeps moving.
		next := uint64(1 << 32)
		tails := make([][]stream.Item, users)
		var load []stream.Edge
		for u := 0; u < users; u++ {
			for j := 0; j < common; j++ {
				load = append(load, stream.Edge{User: stream.User(u), Item: stream.Item(u/members*common + j), Op: stream.Insert})
			}
			for j := 0; j < size-common; j++ {
				tails[u] = append(tails[u], stream.Item(next))
				load = append(load, stream.Edge{User: stream.User(u), Item: stream.Item(next), Op: stream.Insert})
				next++
			}
		}
		if err := e.ProcessBatch(load); err != nil {
			t.Fatal(err)
		}
		e.Flush()
		if _, err := e.TopKApprox(0, topN); err != nil { // the initial build
			t.Fatal(err)
		}
		built, _ := e.ANNStats()

		for w := 0; w < writes; w++ {
			batch := make([]stream.Edge, 0, writeEdges)
			for len(batch) < writeEdges {
				u := rng.Intn(users)
				i := rng.Intn(len(tails[u]))
				batch = append(batch,
					stream.Edge{User: stream.User(u), Item: tails[u][i], Op: stream.Delete},
					stream.Edge{User: stream.User(u), Item: stream.Item(next), Op: stream.Insert})
				tails[u][i] = stream.Item(next)
				next++
			}
			if err := e.ProcessBatch(batch); err != nil {
				t.Fatal(err)
			}
			e.Flush()
			if _, err := e.TopKApprox(stream.User(rng.Intn(users)), topN); err != nil {
				t.Fatal(err)
			}
		}
		st, _ := e.ANNStats()
		if st.Rebands != built.Rebands || st.Rotations != 0 || st.JournalFallbacks != 0 || st.SpilledUsers != 0 ||
			st.DirtyBacklog != 0 || st.BandRekeys < writes*writeEdges/4 {
			t.Fatalf("seed %d: the writes were not all followed band by band: %+v (built: %+v)", seed, st, built)
		}

		snap := e.snapshot()
		all := make([]stream.User, users)
		for u := range all {
			all[u] = stream.User(u)
		}
		fresh, err := lsh.NewBandIndex(e.ann.ix.Params(), snap.K())
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range all {
			if err := fresh.Put(u, snap.RecoverSketch(u).Words()); err != nil {
				t.Fatal(err)
			}
		}
		recall := func(got, exact []core.TopKResult) float64 {
			in := map[stream.User]bool{}
			for _, r := range got {
				in[r.User] = true
			}
			hits := 0
			for _, r := range exact {
				if in[r.User] {
					hits++
				}
			}
			return float64(hits) / float64(len(exact))
		}
		for _, u := range all {
			exact := snap.TopK(u, all, topN)
			got, err := e.TopKApprox(u, topN)
			if err != nil {
				t.Fatal(err)
			}
			maintained += recall(got, exact)
			rec := snap.RecoverSketch(u)
			cands, err := fresh.Candidates(u, rec.Words())
			if err != nil {
				t.Fatal(err)
			}
			rebuilt += recall(snap.TopKRecovered(rec, cands, topN), exact)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	n := float64(seeds * users)
	maintained, rebuilt = maintained/n, rebuilt/n
	t.Logf("recall@%d over %d probes: maintained %.4f, rebuilt %.4f", topN, seeds*users, maintained, rebuilt)
	if rebuilt < 0.5 || rebuilt > 0.95 {
		t.Fatalf("rebuilt index reads recall %.3f: outside the regime the comparison means anything in", rebuilt)
	}
	if d := maintained - rebuilt; d < -0.02 || d > 0.02 {
		t.Fatalf("maintained index reads recall %.4f, rebuilt %.4f", maintained, rebuilt)
	}
}
