package vos_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vossketch/vos"
)

func serviceSketchConfig() vos.Config {
	return vos.Config{MemoryBits: 1 << 18, SketchBits: 512, Seed: 7}
}

// inProcessServices builds the two in-process adapters over one config.
func inProcessServices(t *testing.T) map[string]vos.SimilarityService {
	t.Helper()
	eng := vos.MustNewEngine(vos.EngineConfig{Sketch: serviceSketchConfig(), Shards: 2})
	t.Cleanup(func() { eng.Close() })
	return map[string]vos.SimilarityService{
		"engine": vos.NewEngineService(eng),
		"sketch": vos.NewSketchService(vos.MustNew(serviceSketchConfig())),
	}
}

// startReaders calls read from n goroutines, over and over, until the
// returned stop function is called (stop waits for them) or read reports
// false.
func startReaders(n int, read func() bool) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !read() {
					return
				}
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// TestServiceAdaptersAgree: the two in-process adapters answer the same
// stream identically — the interface is a veneer, not a second estimator.
// Readers run against both while the stream is being ingested, so -race
// covers the sketch adapter's shared read lock against its writer.
func TestServiceAdaptersAgree(t *testing.T) {
	ctx := context.Background()
	edges := engineTestStream(8_000, 60, 0.25, 21)
	services := inProcessServices(t)
	candidates := make([]vos.User, 50)
	for i := range candidates {
		candidates[i] = vos.User(i)
	}

	var stops []func()
	for name, svc := range services {
		stops = append(stops, startReaders(3, func() bool {
			est, err := svc.Similarity(ctx, 1, 4)
			if err != nil || est.Jaccard < 0 || est.Jaccard > 1 {
				t.Errorf("%s: mid-stream Similarity = %+v, %v", name, est, err)
				return false
			}
			_, topErr := svc.TopK(ctx, 1, candidates, 5)
			_, cardErr := svc.Cardinality(ctx, 1)
			_, statsErr := svc.Stats(ctx)
			if err := errors.Join(topErr, cardErr, statsErr); err != nil {
				t.Errorf("%s: mid-stream read: %v", name, err)
				return false
			}
			return true
		}))
	}
	for lo := 0; lo < len(edges); lo += 500 {
		for name, svc := range services {
			if err := svc.Ingest(ctx, edges[lo:lo+500]); err != nil {
				t.Fatalf("%s: Ingest: %v", name, err)
			}
		}
	}
	for _, stop := range stops {
		stop()
	}

	ref := services["sketch"]
	wantTop, err := ref.TopK(ctx, 1, candidates, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, svc := range services {
		for u := vos.User(0); u < 20; u++ {
			got, err := svc.Similarity(ctx, u, u+3)
			if err != nil {
				t.Fatalf("%s: Similarity: %v", name, err)
			}
			want, err := ref.Similarity(ctx, u, u+3)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: Similarity(%d,%d) = %+v, reference %+v", name, u, u+3, got, want)
			}
			gotCard, err := svc.Cardinality(ctx, u)
			if err != nil {
				t.Fatalf("%s: Cardinality: %v", name, err)
			}
			wantCard, _ := ref.Cardinality(ctx, u)
			if gotCard != wantCard {
				t.Fatalf("%s: Cardinality(%d) = %d, want %d", name, u, gotCard, wantCard)
			}
		}
		gotTop, err := svc.TopK(ctx, 1, candidates, 5)
		if err != nil {
			t.Fatalf("%s: TopK: %v", name, err)
		}
		if !reflect.DeepEqual(gotTop, wantTop) {
			t.Fatalf("%s: TopK = %+v, want %+v", name, gotTop, wantTop)
		}
		gotStats, err := svc.Stats(ctx)
		if err != nil {
			t.Fatalf("%s: Stats: %v", name, err)
		}
		wantStats, _ := ref.Stats(ctx)
		if gotStats != wantStats {
			t.Fatalf("%s: Stats = %+v, want %+v", name, gotStats, wantStats)
		}
	}
}

// TestServicePreCancelledContext: every method of every adapter refuses an
// already-cancelled context with ctx.Err() — before it takes any lock, so
// while live readers hold the sketch adapter's read lock too.
func TestServicePreCancelledContext(t *testing.T) {
	services := inProcessServices(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	edges := []vos.Edge{{User: 1, Item: 2, Op: vos.Insert}}

	sketch := services["sketch"]
	stop := startReaders(3, func() bool {
		if _, err := sketch.Similarity(context.Background(), 1, 2); err != nil {
			t.Errorf("live reader: %v", err)
			return false
		}
		return true
	})
	for name, svc := range services {
		if err := svc.Ingest(ctx, edges); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Ingest on cancelled ctx: %v", name, err)
		}
		if _, err := svc.Similarity(ctx, 1, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Similarity on cancelled ctx: %v", name, err)
		}
		if _, err := svc.TopK(ctx, 1, []vos.User{2, 3}, 1); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: TopK on cancelled ctx: %v", name, err)
		}
		if _, err := svc.Cardinality(ctx, 1); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Cardinality on cancelled ctx: %v", name, err)
		}
		if _, err := svc.Stats(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Stats on cancelled ctx: %v", name, err)
		}
	}
	stop()
	// The refused Ingest applied nothing.
	if n, err := sketch.Cardinality(context.Background(), 1); err != nil || n != 0 {
		t.Errorf("sketch: Cardinality after refused Ingest = %d, %v", n, err)
	}
}

// flipContext reports no error on its first Err call and Canceled from the
// second on: a cancellation that lands after Ingest's entry check.
type flipContext struct {
	context.Context
	calls atomic.Int32
}

func (c *flipContext) Err() error {
	if c.calls.Add(1) >= 2 {
		return context.Canceled
	}
	return nil
}

// TestSketchServiceIngestAllOrNothing: XOR updates are not idempotent, so
// an Ingest that a mid-call cancellation stops part-way leaves a write the
// caller can neither retry nor assume lost. Either Ingest reports an error
// and the sketch is untouched, or it reports nil and holds every edge.
func TestSketchServiceIngestAllOrNothing(t *testing.T) {
	edges := engineTestStream(5_000, 60, 0.25, 33)
	svc := vos.NewSketchService(vos.MustNew(serviceSketchConfig()))
	err := svc.Ingest(&flipContext{Context: context.Background()}, edges)

	want := vos.MustNew(serviceSketchConfig())
	if err == nil {
		want.ProcessBatch(edges)
	}
	got, serr := svc.Stats(context.Background())
	if serr != nil {
		t.Fatal(serr)
	}
	if got != want.Stats() {
		t.Fatalf("Ingest returned %v but left %+v; all-or-nothing state is %+v", err, got, want.Stats())
	}
	for u := vos.User(0); u < 60; u++ {
		n, cerr := svc.Cardinality(context.Background(), u)
		if cerr != nil {
			t.Fatal(cerr)
		}
		if n != want.Cardinality(u) {
			t.Fatalf("Ingest returned %v but user %d holds %d items, want %d", err, u, n, want.Cardinality(u))
		}
	}
}

// TestEngineTopKCancellationAborts is the acceptance-criterion test: a
// context cancelled while Engine.TopK's worker fan-out is mid-scan aborts
// the search with context.Canceled instead of running the candidate set to
// completion. The workload is sized so the scan takes hundreds of
// milliseconds cold (every candidate is a fresh recovery at k=4096), while
// the cancel lands after ~10ms — and the early return is also the -race
// target for the worker error plumbing.
func TestEngineTopKCancellationAborts(t *testing.T) {
	eng := vos.MustNewEngine(vos.EngineConfig{
		Sketch: vos.Config{MemoryBits: 1 << 22, SketchBits: 4096, Seed: 3},
		Shards: 2,
		// The candidate users below are cold on purpose: caches would make
		// the scan fast enough to finish before the cancel lands.
		PositionCacheUsers: -1,
	})
	defer eng.Close()
	var edges []vos.Edge
	for u := vos.User(0); u < 200; u++ {
		for i := 0; i < 20; i++ {
			edges = append(edges, vos.Edge{User: u, Item: vos.Item(int(u)*100 + i), Op: vos.Insert})
		}
	}
	if err := eng.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	eng.Flush()

	candidates := make([]vos.User, 30_000)
	for i := range candidates {
		candidates[i] = vos.User(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := eng.TopKContext(ctx, 1, candidates, 10)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled mid-flight TopK returned %v (after %s), want context.Canceled",
				err, time.Since(start))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled TopK never returned")
	}
}

// TestTopKHelpersNeverOutliveTheCall holds the sketch service's read lock
// to the top-K fan-out: the lock covers the sketch only until TopK returns,
// so a helper still scoring after a cancelled call returned would read the
// array while the Ingest queued behind the lock writes it — a race the
// detector reports. The candidates are cold and many, so the call owes
// enough work to start helpers and is still scanning when the cancel lands.
func TestTopKHelpersNeverOutliveTheCall(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	svc := vos.NewSketchService(vos.MustNew(vos.Config{MemoryBits: 1 << 22, SketchBits: 4096, Seed: 3}))
	ctx := context.Background()
	var edges []vos.Edge
	for u := vos.User(0); u < 200; u++ {
		for i := 0; i < 20; i++ {
			edges = append(edges, vos.Edge{User: u, Item: vos.Item(int(u)*100 + i), Op: vos.Insert})
		}
	}
	if err := svc.Ingest(ctx, edges); err != nil {
		t.Fatal(err)
	}
	candidates := make([]vos.User, 30_000)
	for i := range candidates {
		candidates[i] = vos.User(i)
	}
	for round := 0; round < 3; round++ {
		topCtx, cancel := context.WithCancel(ctx)
		topDone := make(chan error, 1)
		go func() {
			_, err := svc.TopK(topCtx, 1, candidates, 10)
			topDone <- err
		}()
		time.Sleep(5 * time.Millisecond) // the scan holds the read lock
		ingestDone := make(chan error, 1)
		go func() {
			ingestDone <- svc.Ingest(ctx, []vos.Edge{{User: 1, Item: vos.Item(1<<20 + round), Op: vos.Insert}})
		}()
		time.Sleep(2 * time.Millisecond) // the Ingest waits on the write lock
		cancel()
		if err := <-topDone; !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: cancelled TopK returned %v, want context.Canceled", round, err)
		}
		if err := <-ingestDone; err != nil {
			t.Fatalf("round %d: Ingest behind the cancelled TopK: %v", round, err)
		}
	}
}

// TestEngineServiceClosed: after Close, every service method returns the
// ErrClosed sentinel — typed lifecycle errors instead of stale answers.
func TestEngineServiceClosed(t *testing.T) {
	eng, err := vos.OpenEngine(t.TempDir(), vos.EngineConfig{Sketch: serviceSketchConfig()})
	if err != nil {
		t.Fatal(err)
	}
	svc := vos.NewEngineService(eng)
	ctx := context.Background()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.(vos.Checkpointer).Checkpoint(ctx); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Checkpoint after Close: %v", err)
	}
	if err := svc.Ingest(ctx, []vos.Edge{{User: 1, Item: 2, Op: vos.Insert}}); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Ingest after Close: %v", err)
	}
	if _, err := svc.Similarity(ctx, 1, 2); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Similarity after Close: %v", err)
	}
	if _, err := svc.TopK(ctx, 1, []vos.User{2}, 1); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("TopK after Close: %v", err)
	}
	if _, err := svc.Cardinality(ctx, 1); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Cardinality after Close: %v", err)
	}
	if _, err := svc.Stats(ctx); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Stats after Close: %v", err)
	}
	// ErrClosed and the legacy ErrEngineClosed are the same sentinel.
	if !errors.Is(vos.ErrClosed, vos.ErrEngineClosed) {
		t.Fatal("ErrClosed and ErrEngineClosed diverged")
	}
}
