package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/clock"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
)

func testConfig() core.Config {
	return core.Config{MemoryBits: 1 << 18, SketchBits: 512, Seed: 7}
}

// partitionByShard splits edges by the shard that owns each user, in order.
func partitionByShard(e *Engine, edges []stream.Edge) [][]stream.Edge {
	parts := make([][]stream.Edge, e.Shards())
	for _, ed := range edges {
		i := e.ShardOf(ed.User)
		parts[i] = append(parts[i], ed)
	}
	return parts
}

// feasibleStream generates n edges over the given user count with delFrac
// unsubscriptions of live edges, so every prefix is feasible.
func feasibleStream(n, users int, delFrac float64, seed int64) []stream.Edge {
	rng := rand.New(rand.NewSource(seed))
	type key struct {
		u stream.User
		i stream.Item
	}
	liveList := make([]key, 0, n)
	liveIdx := make(map[key]int, n)
	out := make([]stream.Edge, 0, n)
	for len(out) < n {
		if len(liveList) > 0 && rng.Float64() < delFrac {
			pos := rng.Intn(len(liveList))
			k := liveList[pos]
			last := len(liveList) - 1
			liveList[pos] = liveList[last]
			liveIdx[liveList[pos]] = pos
			liveList = liveList[:last]
			delete(liveIdx, k)
			out = append(out, stream.Edge{User: k.u, Item: k.i, Op: stream.Delete})
			continue
		}
		k := key{stream.User(rng.Intn(users)), stream.Item(rng.Uint64() % 100_000)}
		if _, dup := liveIdx[k]; dup {
			continue
		}
		liveIdx[k] = len(liveList)
		liveList = append(liveList, k)
		out = append(out, stream.Edge{User: k.u, Item: k.i, Op: stream.Insert})
	}
	return out
}

// TestAccuracyParity is the headline guarantee: a K-shard engine returns
// identical estimates to a single sketch over the same insert+delete
// stream, for every K.
func TestAccuracyParity(t *testing.T) {
	cfg := testConfig()
	edges := feasibleStream(20_000, 200, 0.25, 11)

	single := core.MustNew(cfg)
	for _, ed := range edges {
		single.Process(ed)
	}

	for _, shards := range []int{1, 2, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := MustNew(Config{Sketch: cfg, Shards: shards, BatchSize: 64})
			defer e.Close()
			if err := e.ProcessBatch(edges); err != nil {
				t.Fatal(err)
			}
			e.Flush()

			st, est := single.Stats(), e.Stats()
			if st.OnesCount != est.OnesCount || st.Beta != est.Beta || st.Users != est.Users {
				t.Fatalf("merged stats diverge: single %+v vs engine %+v", st, est)
			}
			for u := stream.User(0); u < 40; u++ {
				for v := u + 1; v < 40; v += 7 {
					if got, want := e.Query(u, v), single.Query(u, v); got != want {
						t.Fatalf("Query(%d,%d) = %+v, single sketch %+v", u, v, got, want)
					}
				}
				if got, want := e.Cardinality(u), single.Cardinality(u); got != want {
					t.Fatalf("Cardinality(%d) = %d, want %d", u, got, want)
				}
			}
		})
	}
}

// TestShardingMatchesPartitionByUser pins the routing contract: the
// engine's shard sketches equal plain sketches built over
// stream.PartitionByUser with the engine's routing seed.
func TestShardingMatchesPartitionByUser(t *testing.T) {
	cfg := testConfig()
	edges := feasibleStream(5_000, 100, 0.2, 5)
	const shards = 4

	e := MustNew(Config{Sketch: cfg, Shards: shards})
	defer e.Close()
	if err := e.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	for i, part := range partitionByShard(e, edges) {
		want := core.MustNew(cfg)
		for _, ed := range part {
			want.Process(ed)
		}
		e.shards[i].skMu.RLock()
		got := e.shards[i].sk.Stats()
		e.shards[i].skMu.RUnlock()
		if got != want.Stats() {
			t.Fatalf("shard %d state %+v, PartitionByUser sketch %+v", i, got, want.Stats())
		}
	}
}

// TestConcurrentProducersAndQueries hammers the engine from several
// producers while queries run — the -race target — then verifies parity.
func TestConcurrentProducersAndQueries(t *testing.T) {
	cfg := testConfig()
	edges := feasibleStream(24_000, 150, 0.25, 9)
	e := MustNew(Config{Sketch: cfg, Shards: 3, BatchSize: 32})
	defer e.Close()

	const producers = 4
	per := len(edges) / producers
	var produce sync.WaitGroup
	for p := 0; p < producers; p++ {
		produce.Add(1)
		go func(chunk []stream.Edge) {
			defer produce.Done()
			for len(chunk) > 0 {
				n := 100
				if n > len(chunk) {
					n = len(chunk)
				}
				if err := e.ProcessBatch(chunk[:n]); err != nil {
					t.Error(err)
					return
				}
				chunk = chunk[n:]
			}
		}(edges[p*per : (p+1)*per])
	}
	stopQ := make(chan struct{})
	var query sync.WaitGroup
	query.Add(1)
	go func() { // concurrent readers on snapshot and stats paths
		defer query.Done()
		for {
			select {
			case <-stopQ:
				return
			default:
			}
			_ = e.Query(1, 2)
			_ = e.ShardStats()
			_ = e.Cardinality(5)
		}
	}()
	produce.Wait()
	close(stopQ)
	query.Wait()
	e.Flush()

	single := core.MustNew(cfg)
	for _, ed := range edges[:per*producers] {
		single.Process(ed)
	}
	if got, want := e.Query(10, 20), single.Query(10, 20); got != want {
		t.Fatalf("post-concurrency Query = %+v, want %+v", got, want)
	}
}

// TestLingerFlushesPartialBatches verifies an idle stream's tail becomes
// visible without an explicit Flush, via the linger: one period of its
// clock hands the partial batch to the worker.
func TestLingerFlushesPartialBatches(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	e := MustNew(Config{Sketch: testConfig(), Shards: 2, BatchSize: 1024, Clock: clk})
	defer e.Close()
	if err := e.Process(stream.Edge{User: 1, Item: 2, Op: stream.Insert}); err != nil {
		t.Fatal(err)
	}
	s := e.shards[e.ShardOf(1)]
	clk.BlockUntil(1)
	clk.Advance(50 * time.Millisecond)
	clk.BlockUntil(1) // parked again: the hand-over is done
	s.pendMu.Lock()
	pending := len(s.pend)
	s.pendMu.Unlock()
	if pending != 0 {
		t.Fatalf("linger left %d edges pending", pending)
	}
	s.await(1)
	if e.Cardinality(1) != 1 {
		t.Fatal("pending edge never applied by the linger")
	}
}

// TestCloseDrainsAndRejects: Close applies everything buffered, later
// Process calls fail, and Close is idempotent.
func TestCloseDrainsAndRejects(t *testing.T) {
	e := MustNew(Config{Sketch: testConfig(), Shards: 2, BatchSize: 512})
	for i := 0; i < 100; i++ {
		if err := e.Process(stream.Edge{User: stream.User(i % 5), Item: stream.Item(i), Op: stream.Insert}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := e.Process(stream.Edge{User: 1, Item: 1, Op: stream.Insert}); err != ErrClosed {
		t.Fatalf("Process after Close = %v, want ErrClosed", err)
	}
	if err := e.ProcessBatch([]stream.Edge{{User: 1, Item: 1}}); err != ErrClosed {
		t.Fatalf("ProcessBatch after Close = %v, want ErrClosed", err)
	}
	total := uint64(0)
	for _, st := range e.ShardStats() {
		if st.Backlog() != 0 {
			t.Fatalf("shard %d has backlog %d after Close", st.Shard, st.Backlog())
		}
		total += st.Processed
	}
	if total != 100 {
		t.Fatalf("processed %d edges, want 100", total)
	}
}

// TestMarshalRoundTrip: the engine's merged snapshot restores as a plain
// sketch with identical estimates.
func TestMarshalRoundTrip(t *testing.T) {
	cfg := testConfig()
	edges := feasibleStream(3_000, 50, 0.2, 21)
	e := MustNew(Config{Sketch: cfg, Shards: 3})
	defer e.Close()
	if err := e.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.UnmarshalVOS(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Query(1, 2), e.Query(1, 2); got != want {
		t.Fatalf("restored Query = %+v, want %+v", got, want)
	}
}

// TestBatchCarving pins the queue-bound contract: no matter how large the
// slice handed to ProcessBatch, channel batches are exactly BatchSize
// edges and the pending residue stays below one batch — so the queue's
// capacity (rounded to whole batches) really bounds the edges buffered per
// shard.
func TestBatchCarving(t *testing.T) {
	const batch = 4
	e := MustNew(Config{
		Sketch: testConfig(), Shards: 1,
		BatchSize: batch, Clock: clock.NewManual(time.Time{}),
	})
	defer e.Close()
	edges := make([]stream.Edge, 10)
	for i := range edges {
		edges[i] = stream.Edge{User: stream.User(i), Item: stream.Item(i), Op: stream.Insert}
	}
	if err := e.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	s := e.shards[0]
	s.pendMu.Lock()
	residue := len(s.pend)
	s.pendMu.Unlock()
	if residue >= batch {
		t.Fatalf("pending residue %d, want < BatchSize %d", residue, batch)
	}
	e.Flush()
	if got := s.processed.Load(); got != 10 {
		t.Fatalf("processed %d edges, want 10", got)
	}
}

// TestBadConfig propagates sketch validation.
func TestBadConfig(t *testing.T) {
	if _, err := New(Config{Sketch: core.Config{MemoryBits: 0, SketchBits: 8}}); err == nil {
		t.Fatal("degenerate sketch config accepted")
	}
}

// TestFlushRacingClose pins the lifecycle fix: Flush running concurrently
// with Close must neither panic (send on a closed shard channel) nor hang
// (batch parked behind an exited worker) — once Close has begun, Flush
// returns and Close's own drain applies everything buffered. Several
// rounds because the window is a few instructions wide.
func TestFlushRacingClose(t *testing.T) {
	for round := 0; round < 25; round++ {
		clk := clock.NewManual(time.Time{})
		e := MustNew(Config{Sketch: testConfig(), Shards: 2, BatchSize: 64, Clock: clk})
		// Leave partial batches pending so Flush, Close and the linger all
		// have hand-over work to race on.
		for i := 0; i < 100; i++ {
			if err := e.Process(stream.Edge{User: stream.User(i % 7), Item: stream.Item(i), Op: stream.Insert}); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for f := 0; f < 3; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				e.Flush()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := e.Close(); err != nil {
				t.Error(err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			clk.BlockUntil(1) // the linger parks its wait even when Close has stopped it
			clk.Advance(50 * time.Millisecond)
		}()
		close(start)
		wg.Wait()
		// Close drained everything regardless of how the race resolved.
		for _, s := range e.shards {
			if got, want := s.processed.Load(), s.enqueued.Load(); got != want {
				t.Fatalf("round %d: shard drained %d of %d edges after Close", round, got, want)
			}
		}
	}
}

// TestFlushWaitsForEveryBatchCutBeforeIt pins read-your-writes against a
// producer stalled between cutting a full batch and sending it. Client C's
// 100 edges pend; producer P tops them up to a full batch X and stalls at
// the cut (the atCut hook); C calls Flush, whose target counts X; producer Q
// then cuts and sends a batch Z of its own. Were batches applied in an order
// other than the one they were cut in, Z would bring the processed count to
// Flush's target while X — C's edges — still waited behind P, and Flush
// would return without them. P is released when Flush has returned or
// after a grace period in which it could have.
func TestFlushWaitsForEveryBatchCutBeforeIt(t *testing.T) {
	const batch = 256
	e := MustNew(Config{Sketch: testConfig(), Shards: 1, BatchSize: batch, Clock: clock.NewManual(time.Time{})})
	defer e.Close()
	edges := func(u stream.User, n int) []stream.Edge {
		out := make([]stream.Edge, n)
		for i := range out {
			out[i] = stream.Edge{User: u, Item: stream.Item(i), Op: stream.Insert}
		}
		return out
	}
	if err := e.ProcessBatch(edges(1, 100)); err != nil {
		t.Fatal(err)
	}
	cut, release := make(chan struct{}), make(chan struct{})
	cuts := 0
	atCut = func() {
		if cuts++; cuts == 1 {
			close(cut)
			<-release
		}
	}
	defer func() { atCut = nil }()

	var wg sync.WaitGroup
	produce := func(u stream.User, n int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.ProcessBatch(edges(u, n)); err != nil {
				t.Error(err)
			}
		}()
	}
	produce(2, batch-100) // P: cuts X and stalls
	<-cut
	seen := make(chan int64, 1)
	go func() {
		e.Flush()
		seen <- e.Cardinality(1)
	}()
	// Q must come after Flush has cut its target, or that target counts Z as
	// well and the interleaving is not met: wait for Flush to park.
	grace := time.Now().Add(100 * time.Millisecond)
	for e.shards[0].waiters.Load() == 0 && time.Now().Before(grace) {
		time.Sleep(time.Millisecond)
	}
	produce(3, batch) // Q: cuts and sends Z
	var got int64
	select {
	case got = <-seen:
	case <-time.After(100 * time.Millisecond):
		close(release)
		got = <-seen
		release = nil
	}
	if release != nil {
		close(release)
	}
	wg.Wait()
	if got != 100 {
		t.Fatalf("Flush returned with %d of the caller's 100 edges applied", got)
	}
}
