package engine

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/clock"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
)

// annConfig builds a small ANN-enabled engine config: a band structure
// loose enough that a planted cluster's mates reliably collide on the
// 512-bit test sketches.
func annConfig(shards int) Config {
	return Config{
		Sketch: testConfig(),
		Shards: shards,
		ANN:    &ANNConfig{Bands: 16, Rows: 8},
	}
}

// plantedClusterEdges builds one heavy cluster (every member shares the
// first common items, then a private tail) over a light background
// population, returning the edges and each user's item list so tests can
// unsubscribe users edge by edge.
func plantedClusterEdges(mates, size, common, background, bgSize int) ([]stream.Edge, map[stream.User][]stream.Item) {
	items := make(map[stream.User][]stream.Item)
	var edges []stream.Edge
	next := uint64(common)
	for u := stream.User(0); u < stream.User(mates); u++ {
		for j := 0; j < common; j++ {
			items[u] = append(items[u], stream.Item(j))
		}
		for j := 0; j < size-common; j++ {
			items[u] = append(items[u], stream.Item(next))
			next++
		}
	}
	bgBase := uint64(1 << 30)
	for u := stream.User(mates); u < stream.User(mates+background); u++ {
		for j := 0; j < bgSize; j++ {
			items[u] = append(items[u], stream.Item(bgBase))
			bgBase++
		}
	}
	for u, its := range items {
		for _, it := range its {
			edges = append(edges, stream.Edge{User: u, Item: it, Op: stream.Insert})
		}
	}
	return edges, items
}

func TestTopKApproxRequiresANN(t *testing.T) {
	e, err := New(Config{Sketch: testConfig(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, ok := e.ANNStats(); ok {
		t.Error("ANNStats ok on an engine without Config.ANN")
	}
	if _, err := e.TopKApprox(1, 5); err != ErrNoANN {
		t.Errorf("TopKApprox error = %v, want ErrNoANN", err)
	}
}

// TestTopKApproxSubsetOrderedPrefix pins the correctness contract: the
// approximate result is exactly what the exact ranking produces over the
// candidate set — same total order (core.RankBefore), estimates identical
// to the engine's own pairwise answers — and on this planted workload the
// cluster mates are all found.
func TestTopKApproxSubsetOrderedPrefix(t *testing.T) {
	const mates, topN = 8, 5
	edges, _ := plantedClusterEdges(mates, 200, 180, 200, 4)
	e, err := New(annConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	for probe := stream.User(0); probe < mates; probe++ {
		// Asking for "everything" exposes the ranked candidate set.
		all, err := e.TopKApprox(probe, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, r := range all {
			if r.User < mates {
				found++
			}
		}
		if found != mates-1 {
			t.Fatalf("probe %d: %d of %d cluster mates in candidates", probe, found, mates-1)
		}

		approx, err := e.TopKApprox(probe, topN)
		if err != nil {
			t.Fatal(err)
		}
		if len(approx) != topN {
			t.Fatalf("probe %d: got %d results, want %d", probe, len(approx), topN)
		}
		for i, r := range approx {
			if i > 0 && core.RankBefore(r, approx[i-1]) {
				t.Fatalf("probe %d: result out of order at rank %d", probe, i)
			}
			if q := e.Query(probe, r.User); q != r.Estimate {
				t.Fatalf("probe %d: estimate for %d differs from Query", probe, r.User)
			}
		}
		// Prefix parity with the exact scan restricted to the candidates.
		cands := make([]stream.User, len(all))
		for i, r := range all {
			cands[i] = r.User
		}
		exact := e.TopK(probe, cands, topN)
		if len(exact) != len(approx) {
			t.Fatalf("probe %d: exact-over-candidates length %d vs approx %d", probe, len(exact), len(approx))
		}
		for i := range exact {
			if exact[i] != approx[i] {
				t.Fatalf("probe %d: rank %d differs: exact %+v approx %+v", probe, i, exact[i], approx[i])
			}
		}
	}

	st, ok := e.ANNStats()
	if !ok || st.Indexed == 0 || st.Probes == 0 || st.Rebands == 0 {
		t.Fatalf("implausible ANNStats after probing: %+v ok=%v", st, ok)
	}
}

// TestTopKApproxNeverSurfacesDeletedUser pins the asymmetric staleness
// contract, in the spirit of core's TestRecoveredCacheInvalidatedByWrites:
// a write landing between one probe (which banded the index) and the next
// must never let the index surface a deleted user or a stale similarity —
// even with RebandBudget 1, where the band entries themselves stay stale
// for many probes.
func TestTopKApproxNeverSurfacesDeletedUser(t *testing.T) {
	const mates = 8
	edges, items := plantedClusterEdges(mates, 200, 180, 40, 4)
	cfg := annConfig(2)
	cfg.ANN.RebandBudget = 1 // maintenance can never catch up: filter must save us
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if _, err := e.TopKApprox(0, mates); err != nil {
		t.Fatal(err) // first probe builds the index (build ignores the budget)
	}

	// Unsubscribe a mate from everything, then rewrite another mate's tail
	// — both between probes, neither rebandable within budget 1.
	gone := stream.User(3)
	var del []stream.Edge
	for _, it := range items[gone] {
		del = append(del, stream.Edge{User: gone, Item: it, Op: stream.Delete})
	}
	rewritten := stream.User(5)
	for j := 0; j < 40; j++ {
		del = append(del, stream.Edge{User: rewritten, Item: stream.Item(1<<40 + uint64(j)), Op: stream.Insert})
	}
	if err := e.ProcessBatch(del); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if c := e.Cardinality(gone); c != 0 {
		t.Fatalf("deleted user still has cardinality %d", c)
	}

	for probe := 0; probe < 2*mates; probe++ {
		res, err := e.TopKApprox(0, mates)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.User == gone {
				t.Fatalf("probe %d surfaced fully deleted user %d: %+v", probe, gone, r)
			}
			if q := e.Query(0, r.User); q != r.Estimate {
				t.Fatalf("probe %d reported stale similarity for %d", probe, r.User)
			}
		}
	}
	st, _ := e.ANNStats()
	if st.Rebands <= uint64(mates) {
		t.Fatalf("budgeted maintenance should creep forward: %+v", st)
	}
}

// TestTopKApproxWindowRotation pins rotation invalidation: retiring the
// bucket holding a user's whole subscription set must (a) immediately stop
// that user surfacing — via the live-cardinality filter, long before the
// budget re-bands anyone — and (b) mark the membership for re-banding.
func TestTopKApproxWindowRotation(t *testing.T) {
	clk := clock.NewManual(time.Unix(100, 0))
	cfg := windowConfig(2, 2, clk)
	cfg.ANN = &ANNConfig{Bands: 16, Rows: 8}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	edges, _ := plantedClusterEdges(4, 100, 90, 20, 4)
	if err := e.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	res, err := e.TopKApprox(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("pre-rotation probe found %d mates, want 3", len(res))
	}

	// Rotate the whole population out of the window.
	if steps := e.AdvanceWindowTo(time.Unix(105, 0)); steps == 0 {
		t.Fatal("window did not rotate")
	}
	res, err = e.TopKApprox(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("post-rotation probe surfaced retired users: %+v", res)
	}
	st, _ := e.ANNStats()
	if st.Rotations == 0 {
		t.Fatalf("rotation not observed by the index: %+v", st)
	}
}

// TestTopKApproxDuringIngest races index maintenance against concurrent
// ingest, approximate probes, and window rotation under the race detector,
// in the style of TestTopKDuringIngest: the only assertions are shape and
// the estimate/order contract, since the workload is racing.
func TestTopKApproxDuringIngest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	clk := clock.NewManual(time.Unix(100, 0))
	cfg := Config{
		Sketch: core.Config{MemoryBits: 1 << 16, SketchBits: 256, Seed: 13},
		Shards: 2,
		Window: &WindowConfig{Buckets: 3, BucketDuration: time.Second},
		Clock:  clk,
		ANN:    &ANNConfig{Bands: 8, Rows: 8, RebandBudget: 32},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edges := feasibleStream(5000, 300, 0.2, 17)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for _, ed := range edges {
			if err := e.Process(ed); err != nil {
				t.Errorf("Process: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			res, err := e.TopKApprox(stream.User(i%300), 5)
			if err != nil {
				t.Errorf("TopKApprox: %v", err)
				return
			}
			if len(res) > 5 {
				t.Errorf("got %d results, want <= 5", len(res))
				return
			}
			for j := 1; j < len(res); j++ {
				if core.RankBefore(res[j], res[j-1]) {
					t.Errorf("racing result out of order at %d", j)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 1; i <= 4; i++ {
			clk.Advance(700 * time.Millisecond)
			e.AdvanceWindowTo(clk.Now())
		}
	}()
	wg.Wait()
	e.Flush()
	if _, err := e.TopKApprox(7, 5); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.TopKApproxContext(t.Context(), 7, 5); err != ErrClosed {
		t.Fatalf("TopKApproxContext after Close = %v, want ErrClosed", err)
	}
}

// mateCount is how many of users [lo, hi) a probe of u surfaces when asked
// for every candidate.
func mateCount(t *testing.T, e *Engine, u, lo, hi stream.User) int {
	t.Helper()
	all, err := e.TopKApprox(u, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return matesIn(all, lo, hi)
}

func matesIn(all []core.TopKResult, lo, hi stream.User) int {
	found := 0
	for _, r := range all {
		if r.User >= lo && r.User < hi {
			found++
		}
	}
	return found
}

// TestTopKApproxFindsImportedUsers pins that users arriving by ImportSketch
// after the index was built are banded: a handoff target must find the
// imported cluster mates on its next probe, not only once somebody writes
// to them again.
func TestTopKApproxFindsImportedUsers(t *testing.T) {
	const mates = 8
	edges, _ := plantedClusterEdges(mates, 200, 180, 40, 4)
	var local, moved []stream.Edge
	for _, ed := range edges {
		if ed.User >= 2 && ed.User < mates {
			moved = append(moved, ed)
		} else {
			local = append(local, ed)
		}
	}
	e, err := New(annConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ProcessBatch(local); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if got := mateCount(t, e, 0, 1, mates); got != 1 {
		t.Fatalf("before the import: %d mates found, want 1", got)
	}

	source := core.MustNew(testConfig())
	source.ProcessBatch(moved)
	blob, err := source.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ImportSketch(blob); err != nil {
		t.Fatal(err)
	}
	if got := mateCount(t, e, 0, 1, mates); got != mates-1 {
		t.Fatalf("after the import: %d of %d cluster mates found", got, mates-1)
	}
}

// TestTopKApproxLaggedViewKeepsWrites pins that a write is banded from a
// view that holds it. A probe can run against a view that predates a user's
// writes — it acquired the view and the workers, or another probe, moved on;
// the index must still pick that user up from a view that holds them, not
// consider it dealt with on the stale one, and a probe whose view is older
// than the index's cursor must leave the index alone.
func TestTopKApproxLaggedViewKeepsWrites(t *testing.T) {
	edges, _ := plantedClusterEdges(2, 200, 180, 40, 4)
	var first, mate []stream.Edge
	for _, ed := range edges {
		if ed.User == 1 {
			mate = append(mate, ed)
		} else {
			first = append(first, ed)
		}
	}
	e, err := New(annConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ProcessBatch(first); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if got := mateCount(t, e, 0, 1, 2); got != 0 {
		t.Fatalf("mate found before it was written")
	}
	stale := e.acquire() // the view that probe ran on, held across the mate's writes
	defer stale.Release()
	onStale := func() int {
		t.Helper()
		all, err := e.topKApproxOn(context.Background(), e.ann, stale, 0, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		return matesIn(all, 1, 2)
	}
	if err := e.ProcessBatch(mate); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if got := onStale(); got != 0 {
		t.Fatalf("the stale view already holds the mate: the test no longer exercises the lag")
	}
	// The next view holds the mate (exact J = 0.82), and so must the index.
	if c := e.Query(0, 1).CardinalityV; c != 200 {
		t.Fatalf("view still lags: mate cardinality %d", c)
	}
	if got := mateCount(t, e, 0, 1, 2); got != 1 {
		t.Fatal("mate written under a lagged view is never banded")
	}
	// The index is now past the stale view: a probe still on it answers from
	// its own view and unbands nothing.
	if got := onStale(); got != 0 {
		t.Fatalf("a probe on a view without the mate found it")
	}
	if got := mateCount(t, e, 0, 1, 2); got != 1 {
		t.Fatal("a probe on an older view took the mate out of the index")
	}
}

// TestTopKApproxBurstPastJournal guards the journal reader against a cliff
// its fallback could have: a burst of several journal bounds over 50 of
// 5,000 users between two probes re-bands those 50, not the membership.
func TestTopKApproxBurstPastJournal(t *testing.T) {
	const users, hot = 5000, 50
	e, err := New(annConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var edges []stream.Edge
	for u := 0; u < users; u++ {
		for j := 0; j < 2; j++ {
			edges = append(edges, stream.Edge{User: stream.User(u), Item: stream.Item(u*2 + j), Op: stream.Insert})
		}
	}
	if err := e.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if _, err := e.TopKApprox(0, 5); err != nil {
		t.Fatal(err)
	}
	before, _ := e.ANNStats()
	if before.Indexed != users {
		t.Fatalf("built %d of %d users", before.Indexed, users)
	}
	var burst []stream.Edge
	for j := 0; j < 60; j++ {
		for u := 0; u < hot; u++ {
			burst = append(burst, stream.Edge{User: stream.User(u * 97), Item: stream.Item(1<<41 + uint64(j)), Op: stream.Insert})
		}
	}
	if bound := int(e.journalMax) * len(e.shards); len(burst) < 4*bound {
		t.Fatalf("burst of %d edges is not several journal bounds (%d)", len(burst), bound)
	}
	if err := e.ProcessBatch(burst); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if _, err := e.TopKApprox(0, 5); err != nil {
		t.Fatal(err)
	}
	after, _ := e.ANNStats()
	if got := after.Rebands - before.Rebands; got == 0 || got > hot {
		t.Fatalf("burst over %d users re-banded %d", hot, got)
	}
	if after.DirtyBacklog != 0 {
		t.Fatalf("backlog after an unbudgeted-size burst: %+v", after)
	}
}
