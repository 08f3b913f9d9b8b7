package engine

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/clock"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
)

// windowConfig builds a windowed engine config on a manual clock, so the
// linger runs and the window rotates only when the test says so.
func windowConfig(shards, buckets int, clk *clock.Manual) Config {
	return Config{
		Sketch: testConfig(),
		Shards: shards,
		Window: &WindowConfig{Buckets: buckets, BucketDuration: time.Second},
		Clock:  clk,
	}
}

// windowStream cuts a feasible stream into spans, one per bucket interval.
func windowStream(n, spans int, seed int64) [][]stream.Edge {
	edges := feasibleStream(n, 40, 0.25, seed)
	out := make([][]stream.Edge, spans)
	per := len(edges) / spans
	for i := 0; i < spans; i++ {
		lo, hi := i*per, (i+1)*per
		if i == spans-1 {
			hi = len(edges)
		}
		out[i] = edges[lo:hi]
	}
	return out
}

// TestRotationTakesAcceptedEdgesAlong: edges accepted before a rotation
// belong to the bucket that was current when they were accepted, even when
// they still sit in a shard's pending batch — so rotating every bucket out
// retires them, and a rotation racing nothing changes nothing about where an
// acknowledged write lands.
func TestRotationTakesAcceptedEdgesAlong(t *testing.T) {
	const buckets = 3
	clk := clock.NewManual(time.Unix(1000, 0))
	e := MustNew(windowConfig(2, buckets, clk))
	defer e.Close()
	if err := e.ProcessBatch(feasibleStream(40, 10, 0, 15)); err != nil { // under a batch a shard: pending
		t.Fatal(err)
	}
	if n := e.AdvanceWindowTo(time.Unix(1000+buckets, 0)); n != buckets {
		t.Fatalf("crossed %d boundaries, want %d", n, buckets)
	}
	got, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MustNew(testConfig()).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("edges accepted before the window rotated every bucket out are still in it")
	}
}

// TestEngineWindowParity is the tentpole bar at the engine layer: after
// any sequence of ingests and rotations, a K-shard windowed engine's
// serialized live view is bit-identical to a fresh single sketch built
// from only the in-window edges — for 1, 2, and 4 shards.
func TestEngineWindowParity(t *testing.T) {
	const buckets = 3
	spans := windowStream(6000, 8, 11)
	for _, shards := range []int{1, 2, 4} {
		base := time.Unix(1000, 0)
		clk := clock.NewManual(base.Add(100 * time.Millisecond))
		e := MustNew(windowConfig(shards, buckets, clk))

		// inWindow[k] holds the edges attributed to the k-th live bucket.
		var inWindow [][]stream.Edge = make([][]stream.Edge, buckets)
		for span, edges := range spans {
			if err := e.ProcessBatch(edges); err != nil {
				t.Fatal(err)
			}
			inWindow[buckets-1] = append(inWindow[buckets-1], edges...)
			e.Flush()

			got, err := e.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			fresh := core.MustNew(testConfig())
			for _, be := range inWindow {
				for _, ed := range be {
					fresh.Process(ed)
				}
			}
			want, err := fresh.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("shards=%d span=%d: windowed engine bytes diverge from fresh in-window sketch", shards, span)
			}
			// Spot-check the query path agrees too.
			if g, w := e.Query(1, 2), fresh.Query(1, 2); g != w {
				t.Fatalf("shards=%d span=%d: Query(1,2) = %+v, want %+v", shards, span, g, w)
			}
			if g, w := e.Cardinality(3), fresh.Cardinality(3); g != w {
				t.Fatalf("shards=%d span=%d: Cardinality(3) = %d, want %d", shards, span, g, w)
			}

			// Advance one bucket boundary via the clock path: move the clock
			// past the end and let a query-side poll (or the linger) rotate.
			clk.Advance(time.Second)
			info, ok := e.WindowInfo()
			if !ok {
				t.Fatal("WindowInfo not available on a windowed engine")
			}
			if want := base.Add(time.Duration(span+2) * time.Second); !info.End.Equal(want) {
				t.Fatalf("shards=%d span=%d: window end = %v, want %v", shards, span, info.End, want)
			}
			copy(inWindow, inWindow[1:])
			inWindow[buckets-1] = nil
		}
		st := e.Stats()
		if st.WindowBuckets != buckets || st.WindowSeconds != float64(buckets) {
			t.Fatalf("stats window metadata = (%v s, %d buckets), want (%d s, %d)",
				st.WindowSeconds, st.WindowBuckets, buckets, buckets)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineWindowClockSkew pins skew handling: event times that jump
// backwards never unwind the window, and late edges land in the current
// bucket rather than vanishing.
func TestEngineWindowClockSkew(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 100))
	e := MustNew(windowConfig(2, 4, clk))
	defer e.Close()

	if err := e.ProcessBatch(feasibleStream(500, 20, 0, 21)); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	info, _ := e.WindowInfo()

	// Skewed past timestamps: no-ops.
	if n := e.AdvanceWindowTo(time.Unix(999, 0)); n != 0 {
		t.Fatalf("backwards advance rotated %d times", n)
	}
	if n := e.AdvanceWindowTo(info.End.Add(-time.Nanosecond)); n != 0 {
		t.Fatalf("intra-bucket advance rotated %d times", n)
	}
	after, _ := e.WindowInfo()
	if !after.End.Equal(info.End) || after.Rotations != info.Rotations {
		t.Fatalf("window moved under skewed timestamps: %+v -> %+v", info, after)
	}

	// A late edge (the clock never advanced) still counts.
	before := e.Cardinality(1)
	if err := e.Process(stream.Edge{User: 1, Item: 9999, Op: stream.Insert}); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if got := e.Cardinality(1); got != before+1 {
		t.Fatalf("late edge lost: cardinality %d -> %d", before, got)
	}

	// Event time far in the future: the whole window ages out, reported
	// boundary count in full, and the state is empty.
	n := e.AdvanceWindowTo(time.Unix(5000, 0))
	if n < 4 {
		t.Fatalf("long-gap advance rotated %d times, want >= buckets", n)
	}
	if st := e.Stats(); st.OnesCount != 0 || st.Users != 0 {
		t.Fatalf("window not empty after aging out: %+v", st)
	}
}

// TestEngineWindowRotationRace exercises rotation racing concurrent
// ingest and TopK under -race: three writers, two top-K readers, and a
// rotator driving the clock forward. Correctness here is "no race, no
// panic, estimates stay well-formed"; exact parity is pinned by the
// deterministic tests above.
func TestEngineWindowRotationRace(t *testing.T) {
	base := time.Unix(2000, 0)
	clk := clock.NewManual(base.Add(time.Millisecond))
	cfg := windowConfig(4, 2, clk)
	cfg.BatchSize = 16
	e := MustNew(cfg)

	const users = 64
	candidates := make([]stream.User, users)
	for i := range candidates {
		candidates[i] = stream.User(i)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]stream.Edge, 32)
				for i := range batch {
					batch[i] = stream.Edge{
						User: stream.User(rng.Intn(users)),
						Item: stream.Item(rng.Intn(1000)),
						Op:   stream.Insert,
					}
				}
				if err := e.ProcessBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				top := e.TopK(stream.User(0), candidates, 5)
				for _, res := range top {
					if res.Estimate.Jaccard < 0 || res.Estimate.Jaccard > 1 {
						t.Errorf("malformed estimate under rotation: %+v", res)
						return
					}
				}
				e.Cardinality(stream.User(1))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 40; i++ {
			clk.Advance(100 * time.Millisecond)
			e.AdvanceWindowTo(clk.Now())
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	wg.Wait()
	info, _ := e.WindowInfo()
	if info.Rotations == 0 {
		t.Fatal("rotator never rotated")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLingerRotatesIdleWindow: an idle windowed engine retires a bucket once
// its clock passes the boundary, through the linger alone — no ingest or
// query polls the clock.
func TestLingerRotatesIdleWindow(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	e := MustNew(windowConfig(2, 3, clk))
	defer e.Close()
	clk.BlockUntil(1)
	clk.Advance(time.Second)
	clk.BlockUntil(1) // parked again: the linger's round is done
	if n := e.winRot.Load(); n != 1 {
		t.Fatalf("%d rotations after one idle bucket, want 1", n)
	}
}

// durableWindowConfig is durableConfig plus a window.
func durableWindowConfig(dir string, shards, buckets int, clk *clock.Manual) Config {
	cfg := windowConfig(shards, buckets, clk)
	cfg.Durability = durableConfig(dir, shards).Durability
	return cfg
}

// TestEngineWindowCheckpointRecovery: a windowed checkpoint persists the
// bucket ring, recovery keeps rotating on the persisted boundaries, and
// the recovered engine's live view is bit-identical to the original's —
// including after further rotations on both sides.
func TestEngineWindowCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	base := time.Unix(3000, 0)
	clk := clock.NewManual(base.Add(time.Millisecond))
	const buckets = 3
	e := MustOpen(durableWindowConfig(dir, 2, buckets, clk))

	spans := windowStream(3000, 4, 31)
	for i, edges := range spans[:3] {
		if err := e.ProcessBatch(edges); err != nil {
			t.Fatal(err)
		}
		e.AdvanceWindowTo(base.Add(time.Duration(i+1) * time.Second))
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint WAL suffix, then "crash" (abandon, no Close).
	if err := e.ProcessBatch(spans[3]); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	want, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wantInfo, _ := e.WindowInfo()

	r := MustOpen(durableWindowConfig(dir, 2, buckets, clk))
	got, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered windowed engine diverges from the abandoned original")
	}
	gotInfo, _ := r.WindowInfo()
	if !gotInfo.End.Equal(wantInfo.End) {
		t.Fatalf("recovered window end %v, want %v", gotInfo.End, wantInfo.End)
	}

	// Both sides keep rotating: retire one bucket on each and re-compare.
	next := gotInfo.End
	e.AdvanceWindowTo(next)
	r.AdvanceWindowTo(next)
	want, _ = e.MarshalBinary()
	got, _ = r.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatal("recovered engine diverges after a post-recovery rotation")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineWindowRecoveryAfterPostCheckpointRotations pins the crash
// case the checkpoint alone cannot describe: rotations and fresh ingest
// happen AFTER the checkpoint, then the engine dies. Rotation events are
// not WAL-logged, so recovery advances the rings to the present before
// replaying — the replayed suffix lands in the bucket covering now, and
// edges still inside the window MUST survive recovery (they may only
// ever retire late, never early). With the crash inside the same bucket
// the edges were ingested in, attribution is exact and recovery is
// bit-identical.
func TestEngineWindowRecoveryAfterPostCheckpointRotations(t *testing.T) {
	dir := t.TempDir()
	base := time.Unix(7000, 0)
	clk := clock.NewManual(base.Add(time.Millisecond))
	const buckets = 3
	e := MustOpen(durableWindowConfig(dir, 2, buckets, clk))

	spans := windowStream(2000, 2, 71)
	// Span A in the first bucket, then checkpoint.
	if err := e.ProcessBatch(spans[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Two post-checkpoint rotations, then span B in the new current
	// bucket, then crash (abandon) with the clock inside that bucket.
	clk.Advance(2 * time.Second)
	e.AdvanceWindowTo(clk.Now())
	if err := e.ProcessBatch(spans[1]); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	want, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	r := MustOpen(durableWindowConfig(dir, 2, buckets, clk))
	got, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovery after post-checkpoint rotations diverges from the abandoned original")
	}
	// The load-bearing property: span B's edges are still in the window.
	for _, ed := range spans[1][:5] {
		if r.Cardinality(ed.User) != e.Cardinality(ed.User) {
			t.Fatalf("post-checkpoint edge for user %d retired early on recovery", ed.User)
		}
	}
	// Both sides keep rotating in lockstep afterwards.
	next := base.Add(4 * time.Second)
	e.AdvanceWindowTo(next)
	r.AdvanceWindowTo(next)
	want, _ = e.MarshalBinary()
	got, _ = r.MarshalBinary()
	if !bytes.Equal(got, want) {
		t.Fatal("post-recovery rotation diverges")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineWindowCheckpointMidRotation races Checkpoint against
// AdvanceWindowTo: the checkpoint must capture the ring entirely on one
// side of the rotation, so after aligning both engines to a common
// boundary the recovered state is bit-identical to the original.
func TestEngineWindowCheckpointMidRotation(t *testing.T) {
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		base := time.Unix(4000, 0)
		clk := clock.NewManual(base.Add(time.Millisecond))
		const buckets = 3
		e := MustOpen(durableWindowConfig(dir, 2, buckets, clk))

		spans := windowStream(2000, 3, int64(41+round))
		for i, edges := range spans {
			if err := e.ProcessBatch(edges); err != nil {
				t.Fatal(err)
			}
			if i < len(spans)-1 {
				e.AdvanceWindowTo(base.Add(time.Duration(i+1) * time.Second))
			}
		}
		e.Flush()

		// Race one rotation against the checkpoint.
		var wg sync.WaitGroup
		wg.Add(2)
		rotateAt := base.Add(time.Duration(len(spans)) * time.Second)
		go func() {
			defer wg.Done()
			e.AdvanceWindowTo(rotateAt)
		}()
		var ckptErr error
		go func() {
			defer wg.Done()
			_, ckptErr = e.Checkpoint()
		}()
		wg.Wait()
		if ckptErr != nil {
			t.Fatal(ckptErr)
		}

		r := MustOpen(durableWindowConfig(dir, 2, buckets, clk))
		// Align both engines past the raced boundary, then the rings must
		// cover identical time ranges with identical contents.
		sync1 := rotateAt.Add(time.Second)
		e.AdvanceWindowTo(sync1)
		r.AdvanceWindowTo(sync1)
		want, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: mid-rotation checkpoint recovery diverges", round)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineWindowCheckpointModeMismatch: a windowed engine must refuse an
// unwindowed checkpoint directory and vice versa.
func TestEngineWindowCheckpointModeMismatch(t *testing.T) {
	dir := t.TempDir()
	plain := MustOpen(durableConfig(dir, 1))
	if err := plain.ProcessBatch(feasibleStream(200, 10, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	clk := clock.NewManual(time.Unix(5000, 0))
	wcfg := durableWindowConfig(dir, 1, 2, clk)
	if _, err := Open(wcfg); err == nil {
		t.Fatal("windowed engine opened an unwindowed checkpoint directory")
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	dir2 := t.TempDir()
	w := MustOpen(durableWindowConfig(dir2, 1, 2, clk))
	if err := w.ProcessBatch(feasibleStream(200, 10, 0, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(durableConfig(dir2, 1)); err == nil {
		t.Fatal("unwindowed engine opened a windowed checkpoint directory")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineWindowValidation pins constructor errors.
func TestEngineWindowValidation(t *testing.T) {
	if _, err := New(Config{Sketch: testConfig(), Window: &WindowConfig{Buckets: 0, BucketDuration: time.Second}}); err == nil {
		t.Error("accepted 0 buckets")
	}
	if _, err := New(Config{Sketch: testConfig(), Window: &WindowConfig{Buckets: 2}}); err == nil {
		t.Error("accepted zero bucket duration")
	}
	e := MustNew(Config{Sketch: testConfig(), Shards: 1})
	defer e.Close()
	if e.Windowed() {
		t.Error("unwindowed engine reports Windowed")
	}
	if _, ok := e.WindowInfo(); ok {
		t.Error("unwindowed engine reports WindowInfo")
	}
	if n := e.AdvanceWindowTo(time.Now()); n != 0 {
		t.Error("unwindowed engine rotated")
	}
}
