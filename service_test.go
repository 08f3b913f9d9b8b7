package vos_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/vossketch/vos"
)

func serviceSketchConfig() vos.Config {
	return vos.Config{MemoryBits: 1 << 18, SketchBits: 512, Seed: 7}
}

// engineService builds the in-process adapter over a 2-shard engine.
func engineService(t *testing.T) vos.SimilarityService {
	t.Helper()
	eng := vos.MustNewEngine(vos.EngineConfig{Sketch: serviceSketchConfig(), Shards: 2})
	t.Cleanup(func() { eng.Close() })
	return vos.NewEngineService(eng)
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

// TestServiceAdaptersAgree: the in-process adapter answers a stream as one
// plain Sketch fed the same stream does — the interface is a veneer, not a
// second estimator. Readers run against the service while the stream is
// being ingested, so -race covers its reads against the shard workers.
func TestServiceAdaptersAgree(t *testing.T) {
	ctx := context.Background()
	edges := engineTestStream(8_000, 60, 0.25, 21)
	svc := engineService(t)
	ref := vos.MustNew(serviceSketchConfig())
	candidates := make([]vos.User, 50)
	for i := range candidates {
		candidates[i] = vos.User(i)
	}

	stop := startReaders(3, func() bool {
		est, err := svc.Similarity(ctx, 1, 4)
		if err != nil || est.Jaccard < 0 || est.Jaccard > 1 {
			t.Errorf("mid-stream Similarity = %+v, %v", est, err)
			return false
		}
		_, topErr := svc.TopK(ctx, 1, candidates, 5)
		_, cardErr := svc.Cardinality(ctx, 1)
		_, statsErr := svc.Stats(ctx)
		if err := errors.Join(topErr, cardErr, statsErr); err != nil {
			t.Errorf("mid-stream read: %v", err)
			return false
		}
		return true
	})
	for lo := 0; lo < len(edges); lo += 500 {
		if err := svc.Ingest(ctx, edges[lo:lo+500]); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		ref.ProcessBatch(edges[lo : lo+500])
	}
	stop()

	for u := vos.User(0); u < 20; u++ {
		got, err := svc.Similarity(ctx, u, u+3)
		if err != nil {
			t.Fatalf("Similarity: %v", err)
		}
		if want := ref.Query(u, u+3); got != want {
			t.Fatalf("Similarity(%d,%d) = %+v, sketch %+v", u, u+3, got, want)
		}
		gotCard, err := svc.Cardinality(ctx, u)
		if err != nil {
			t.Fatalf("Cardinality: %v", err)
		}
		if want := ref.Cardinality(u); gotCard != want {
			t.Fatalf("Cardinality(%d) = %d, want %d", u, gotCard, want)
		}
	}
	gotTop, err := svc.TopK(ctx, 1, candidates, 5)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if want := ref.TopK(1, candidates, 5); !reflect.DeepEqual(gotTop, want) {
		t.Fatalf("TopK = %+v, want %+v", gotTop, want)
	}
	gotStats, err := svc.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if want := ref.Stats(); gotStats != want {
		t.Fatalf("Stats = %+v, want %+v", gotStats, want)
	}
}

// TestServicePreCancelledContext: every method of the adapter refuses an
// already-cancelled context with ctx.Err() — also while live readers hold
// the engine's merged view.
func TestServicePreCancelledContext(t *testing.T) {
	svc := engineService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	edges := []vos.Edge{{User: 1, Item: 2, Op: vos.Insert}}

	stop := startReaders(3, func() bool {
		if _, err := svc.Similarity(context.Background(), 1, 2); err != nil {
			t.Errorf("live reader: %v", err)
			return false
		}
		return true
	})
	if err := svc.Ingest(ctx, edges); !errors.Is(err, context.Canceled) {
		t.Errorf("Ingest on cancelled ctx: %v", err)
	}
	if _, err := svc.Similarity(ctx, 1, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("Similarity on cancelled ctx: %v", err)
	}
	if _, err := svc.TopK(ctx, 1, []vos.User{2, 3}, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("TopK on cancelled ctx: %v", err)
	}
	if _, err := svc.Cardinality(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("Cardinality on cancelled ctx: %v", err)
	}
	if _, err := svc.Stats(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Stats on cancelled ctx: %v", err)
	}
	stop()
	// The refused Ingest applied nothing.
	if n, err := svc.Cardinality(context.Background(), 1); err != nil || n != 0 {
		t.Errorf("Cardinality after refused Ingest = %d, %v", n, err)
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

// TestTopKHelpersNeverOutliveTheCall holds the engine's top-K fan-out to
// the merged view's lifetime: the call holds the view only until TopK
// returns, and the next read after a write brings the released view forward
// in place, so a helper still scoring after a cancelled call returned would
// read the array while that refresh writes it — a race the detector
// reports. The candidates are cold and many, so the call owes enough work
// to start helpers and is still scanning when the cancel lands.
func TestTopKHelpersNeverOutliveTheCall(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	eng := vos.MustNewEngine(vos.EngineConfig{
		Sketch:             vos.Config{MemoryBits: 1 << 22, SketchBits: 4096, Seed: 3},
		Shards:             1,
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
	candidates := make([]vos.User, 30_000)
	for i := range candidates {
		candidates[i] = vos.User(i)
	}
	for round := 0; round < 3; round++ {
		eng.Query(1, 2) // the published view is current: the scan holds it as is
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(5*time.Millisecond, cancel)
		if _, err := eng.TopKContext(ctx, 1, candidates, 10); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: cancelled TopK returned %v, want context.Canceled", round, err)
		}
		// Words all over the array, written into the released view right
		// after the return: a helper still scoring reads some of them.
		fresh := make([]vos.Edge, 64)
		for u := range fresh {
			fresh[u] = vos.Edge{User: vos.User(u), Item: vos.Item(1<<20 + round), Op: vos.Insert}
		}
		if err := eng.ProcessBatch(fresh); err != nil {
			t.Fatal(err)
		}
		eng.Flush()
		eng.Query(1, 2)
	}
}

// TestEngineServiceClosed: after Close, every service method returns the
// ErrClosed sentinel — typed lifecycle errors instead of stale answers — on
// a durable engine and a memory-only one alike (whose Checkpoint is closed,
// not missing a capability).
func TestEngineServiceClosed(t *testing.T) {
	durable, err := vos.OpenEngine(t.TempDir(), vos.EngineConfig{Sketch: serviceSketchConfig()})
	if err != nil {
		t.Fatal(err)
	}
	memoryOnly, err := vos.NewEngine(vos.EngineConfig{Sketch: serviceSketchConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]*vos.Engine{"durable": durable, "memory-only": memoryOnly} {
		svc := vos.NewEngineService(eng)
		ctx := context.Background()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.(vos.Checkpointer).Checkpoint(ctx); !errors.Is(err, vos.ErrClosed) {
			t.Fatalf("%s: Checkpoint after Close: %v", name, err)
		}
		if err := svc.Ingest(ctx, []vos.Edge{{User: 1, Item: 2, Op: vos.Insert}}); !errors.Is(err, vos.ErrClosed) {
			t.Fatalf("%s: Ingest after Close: %v", name, err)
		}
		if _, err := svc.Similarity(ctx, 1, 2); !errors.Is(err, vos.ErrClosed) {
			t.Fatalf("%s: Similarity after Close: %v", name, err)
		}
		if _, err := svc.TopK(ctx, 1, []vos.User{2}, 1); !errors.Is(err, vos.ErrClosed) {
			t.Fatalf("%s: TopK after Close: %v", name, err)
		}
		if _, err := svc.Cardinality(ctx, 1); !errors.Is(err, vos.ErrClosed) {
			t.Fatalf("%s: Cardinality after Close: %v", name, err)
		}
		if _, err := svc.Stats(ctx); !errors.Is(err, vos.ErrClosed) {
			t.Fatalf("%s: Stats after Close: %v", name, err)
		}
	}
}
