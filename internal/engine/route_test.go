package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/clock"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
)

// routeConfig is a sketch large enough that a shard's journal (MemoryBits /
// 1024 edges) keeps every batch these tests write, so the journals can be
// read back whole.
func routeConfig() core.Config {
	return core.Config{MemoryBits: 1 << 22, SketchBits: 512, Seed: 7}
}

// TestRouteOwnsWhatItQueues drives the write path through every way a
// shard's group can meet its pending batch — leave a residue, fill it
// exactly, straddle it, run several batches past it, arrive one edge at a
// time, find it just flushed — with the caller scribbling over its slice the
// moment ProcessBatch returns. The engine may alias its own partition buffer
// but never the caller's: after Flush the export equals one sketch over the
// logical stream, and every shard's journal is that shard's sub-stream in
// arrival order, cut into exactly BatchSize edges except where a Flush took
// a residue.
func TestRouteOwnsWhatItQueues(t *testing.T) {
	for _, shards := range []int{1, 2, 5} {
		for _, batch := range []int{4, 256} {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", shards, batch), func(t *testing.T) {
				testRouteOwnership(t, shards, batch)
			})
		}
	}
}

func testRouteOwnership(t *testing.T, shards, batch int) {
	e := MustNew(Config{Sketch: routeConfig(), Shards: shards, BatchSize: batch, Clock: clock.NewManual(time.Time{})})
	defer e.Close()

	// Users by owning shard, so a call can give every shard a group of a
	// chosen size.
	users := make([][]stream.User, shards)
	for u := stream.User(0); u < 400; u++ {
		users[e.ShardOf(u)] = append(users[e.ShardOf(u)], u)
	}
	rng := rand.New(rand.NewSource(int64(31*shards + batch)))
	var logical []stream.Edge
	wantLens := make([][]int, shards) // journal entry lengths, per shard
	pend := 0                         // every shard's pending count (all get equal groups)

	write := func(perShard int, single bool) {
		call := make([]stream.Edge, 0, perShard*shards)
		for i := range users {
			for k := 0; k < perShard; k++ {
				call = append(call, stream.Edge{
					User: users[i][rng.Intn(len(users[i]))],
					Item: stream.Item(rng.Intn(1000)),
					Op:   stream.Op(rng.Intn(2)),
				})
			}
		}
		rng.Shuffle(len(call), func(a, b int) { call[a], call[b] = call[b], call[a] })
		logical = append(logical, call...)
		if single {
			for _, ed := range call {
				if err := e.Process(ed); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			if err := e.ProcessBatch(call); err != nil {
				t.Fatal(err)
			}
			for i := range call { // the slice is the caller's again
				call[i] = stream.Edge{User: ^stream.User(0), Item: ^stream.Item(0), Op: stream.Delete}
			}
		}
		for pend += perShard; pend >= batch; pend -= batch {
			for i := range wantLens {
				wantLens[i] = append(wantLens[i], batch)
			}
		}
	}
	flush := func() {
		e.Flush()
		if pend > 0 {
			for i := range wantLens {
				wantLens[i] = append(wantLens[i], pend)
			}
			pend = 0
		}
	}

	write(batch-1, false)         // leaves a residue
	write(1, false)               // fills it exactly
	write(batch/2, false)         // a residue again, the engine's own memory this time
	write(batch+batch/2+1, false) // straddles it: tops it up, one batch in place, one edge over
	write(3*batch, false)         // several batches past it
	write(3, true)                // single edges onto a residue that aliases a partition buffer
	write(batch/2, false)         // a group onto a residue that was copied
	flush()                       // a residue handed over
	write(2*batch+1, false)       // nothing pending: the whole group is carved in place
	write(batch-1, false)         // tops the residue up exactly
	write(1, true)
	flush()
	for i := 0; i < 5; i++ { // half a batch a shard, as datagram frames come: copied onto a pending batch, two to a batch
		write(batch/2, false)
	}
	write(batch-1, false) // fills the pending batch and starts the next
	write(batch+1, false) // leaves a residue that aliases its group,
	write(batch/2, false) // which a short group moves onto a pending batch of full size
	flush()

	single := core.MustNew(routeConfig())
	for _, ed := range logical {
		single.Process(ed)
	}
	got, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("export differs from one sketch over the logical stream")
	}

	for i, part := range partitionByShard(e, logical) {
		s := e.shards[i]
		s.jMu.Lock()
		if s.jFrom != 0 {
			t.Fatalf("shard %d: journal evicted up to %d; the test needs all of it", i, s.jFrom)
		}
		var lens []int
		var applied []stream.Edge
		for _, en := range s.journal {
			lens = append(lens, len(en.batch))
			applied = append(applied, en.batch...)
		}
		s.jMu.Unlock()
		if fmt.Sprint(lens) != fmt.Sprint(wantLens[i]) {
			t.Fatalf("shard %d: journalled batch lengths %v, want %v", i, lens, wantLens[i])
		}
		if len(applied) != len(part) {
			t.Fatalf("shard %d: %d edges journalled, %d routed to it", i, len(applied), len(part))
		}
		for k := range part {
			if applied[k] != part[k] {
				t.Fatalf("shard %d: journalled edge %d is %v, the shard's sub-stream has %v", i, k, applied[k], part[k])
			}
		}
	}
}

// TestRouteAllocations is the ceiling on what one partitioned call may
// allocate once the engine is warm: 4,096 edges over 2 shards, ProcessBatch
// then Flush, workers included (AllocsPerRun counts every goroutine's, and
// its own first run is the warm-up). The partition runs in pooled scratch,
// the batch buffers cycle and the journal slides along its ring, which
// leaves Flush's targets, and a scratch the pool let go of now and then; the
// same call made 9 when each of those was made anew.
//
// The second case is calls shorter than a batch, as a datagram receiver makes
// them: 256 edges over 2 shards, about half a batch a shard. An edge then
// cost its place in a partition buffer (24 bytes and 4 for the owner) and in
// a pending batch (24 more); in steady state it costs nothing, and shard.add
// allocates nothing at all.
func TestRouteAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under the race detector, which also empties sync.Pool at random")
	}
	e := MustNew(Config{Sketch: core.Config{MemoryBits: 1 << 21, SketchBits: 6400, Seed: 7}, Shards: 2, Clock: clock.NewManual(time.Time{})})
	defer e.Close()
	edges := feasibleStream(4096, 2000, 0.25, 3)
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.ProcessBatch(edges); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	})
	t.Logf("a 4,096-edge 2-shard ProcessBatch+Flush: %.0f allocations", allocs)
	if allocs > 3 {
		t.Fatalf("a 4,096-edge 2-shard ProcessBatch+Flush made %.0f allocations, ceiling 3", allocs)
	}

	t.Run("256-edge calls", func(t *testing.T) {
		if testing.Short() {
			t.Skip("measures with testing.Benchmark")
		}
		old := runtime.MemProfileRate
		runtime.MemProfileRate = 1 // every allocation in the profile, for oddAllocs
		defer func() { runtime.MemProfileRate = old }()
		for i := 0; i < 2000; i++ { // warm-up: a full queue's worth of batch buffers comes into being
			if err := e.ProcessBatch(edges[i%16*256:][:256]); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
		before := oddAllocs("engine.(*shard).add", 0)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := e.ProcessBatch(edges[i%16*256:][:256]); err != nil {
					b.Fatal(err)
				}
			}
			e.Flush()
		})
		perEdge := float64(res.AllocedBytesPerOp()) / 256
		t.Logf("%d calls: %d B in %d objects a call, %.1f B an edge", res.N, res.AllocedBytesPerOp(), res.AllocsPerOp(), perEdge)
		if perEdge > 2 {
			t.Errorf("a 256-edge 2-shard ProcessBatch allocates %.1f B an edge, ceiling 2", perEdge)
		}
		// (A blocked send's sudog is charged to add too, once or twice a run.)
		n := oddAllocs("engine.(*shard).add", 0) - before
		t.Logf("%d allocations under shard.add", n)
		if n > 4 {
			t.Errorf("shard.add made %d allocations in %d calls: the batch buffers do not cycle", n, res.N)
		}
	})

	// Process is processBatch over a one-edge array on its own stack.
	t.Run("one-edge Process", func(t *testing.T) {
		for _, ed := range edges { // warm-up, as above
			if err := e.Process(ed); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
		i := 0
		allocs := testing.AllocsPerRun(len(edges), func() {
			if err := e.Process(edges[i%len(edges)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("Process made %.3f allocations a call, want 0", allocs)
		}
	})
}

// oddAllocs counts the allocations the memory profile has seen under the
// function whose name ends in fn that are not of the given size (0: all of
// them).
func oddAllocs(fn string, size int64) (n int64) {
	runtime.GC() // a profile holds what was allocated up to the last collection but one
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for have, ok := runtime.MemProfile(nil, true); !ok; have, ok = runtime.MemProfile(recs, true) {
		recs = make([]runtime.MemProfileRecord, have+64)
	}
	for _, r := range recs {
		if r.AllocObjects == 0 || r.AllocBytes/r.AllocObjects == size {
			continue
		}
		frames := runtime.CallersFrames(r.Stack())
		for more := len(r.Stack()) > 0; more; {
			var f runtime.Frame
			if f, more = frames.Next(); strings.HasSuffix(f.Function, fn) {
				n += r.AllocObjects
				break
			}
		}
	}
	return n
}

// TestRouteShortResidueLeavesItsBatchBehind: the journal keeps what the worker is
// handed, and a pending batch is made at full capacity, so a residue handed
// over at under half of it — an edge and a Flush, over and over — goes in
// memory of its own size, and the batch buffer it leaves behind is the next
// pending batch, not garbage: the eight flushes make one between them. A
// residue past half goes as it is.
func TestRouteShortResidueLeavesItsBatchBehind(t *testing.T) {
	e := MustNew(Config{Sketch: routeConfig(), Shards: 1, Clock: clock.NewManual(time.Time{})})
	defer e.Close()
	batch := e.cfg.BatchSize
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 8; i++ {
		if err := e.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert}); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	}
	runtime.ReadMemStats(&after)
	if got, buf := after.TotalAlloc-before.TotalAlloc, uint64(batch*24); got >= 2*buf && !raceEnabled {
		t.Errorf("eight one-edge flushes allocated %d B, want under two %d-byte batch buffers", got, buf)
	}
	if err := e.ProcessBatch(feasibleStream(batch*3/4, 50, 0, 9)); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	s := e.shards[0]
	s.jMu.Lock()
	defer s.jMu.Unlock()
	if len(s.journal) != 9 {
		t.Fatalf("%d journal entries, want 9", len(s.journal))
	}
	for i, en := range s.journal[:8] {
		if len(en.batch) != 1 || cap(en.batch) >= batch/2 {
			t.Fatalf("entry %d: %d edges in a slice of capacity %d", i, len(en.batch), cap(en.batch))
		}
	}
	if last := s.journal[8].batch; len(last) != batch*3/4 || cap(last) != batch {
		t.Fatalf("last entry: %d edges in a slice of capacity %d, want %d in %d", len(last), cap(last), batch*3/4, batch)
	}
}

// TestFlushUnderProducers: Flush's contract with writers running — every
// edge accepted before the call is applied when it returns. The linger's
// clock stands still, so nothing but Flush hands a residue over: a target cut ahead of what
// is pending would leave Flush waiting for edges nobody is going to send.
func TestFlushUnderProducers(t *testing.T) {
	e := MustNew(Config{Sketch: testConfig(), Shards: 3, BatchSize: 32, Clock: clock.NewManual(time.Time{})})
	defer e.Close()
	edges := feasibleStream(40_000, 300, 0.25, 17)

	var produce sync.WaitGroup
	const producers = 4
	per := len(edges) / producers
	for p := 0; p < producers; p++ {
		produce.Add(1)
		go func(chunk []stream.Edge, size int) {
			defer produce.Done()
			for len(chunk) > 0 {
				n := min(size, len(chunk))
				if err := e.ProcessBatch(chunk[:n]); err != nil {
					t.Error(err)
					return
				}
				chunk = chunk[n:]
			}
		}(edges[p*per:(p+1)*per], 2*p+1+32*(p%2)) // 1, 35, 5, 39 edges a call
	}
	var producing atomic.Bool
	producing.Store(true)
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		before := make([]uint64, len(e.shards))
		for more := true; more; {
			more = producing.Load() // one more round after the producers are done
			for i, s := range e.shards {
				before[i] = s.enqueued.Load()
			}
			e.Flush()
			for i, s := range e.shards {
				if got := s.processed.Load(); got < before[i] {
					t.Errorf("shard %d: Flush returned with %d edges applied, %d were accepted before the call", i, got, before[i])
					return
				}
			}
		}
	}()
	produce.Wait()
	producing.Store(false)
	<-flushed
	for i, s := range e.shards {
		if got, want := s.processed.Load(), s.enqueued.Load(); got != want {
			t.Fatalf("shard %d: %d of %d edges applied after the last Flush", i, got, want)
		}
	}
}

// TestFlushHandsOverBeforeWaiting: with shard 0's worker held, a Flush still
// hands shards 1 and 2 their residues — they apply while Flush waits on
// shard 0 — and returns once shard 0 is let go. A Flush that finishes with
// one shard before it hands the next its residue never gets past shard 0.
func TestFlushHandsOverBeforeWaiting(t *testing.T) {
	e := MustNew(Config{Sketch: testConfig(), Shards: 3, BatchSize: 64, Clock: clock.NewManual(time.Time{})})
	defer e.Close()
	var edges []stream.Edge
	perShard := make([]int, 3)
	for u := stream.User(0); len(edges) < 30; u++ {
		if i := e.ShardOf(u); perShard[i] < 10 {
			perShard[i]++
			edges = append(edges, stream.Edge{User: u, Item: 1, Op: stream.Insert})
		}
	}
	if err := e.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}

	e.shards[0].skMu.Lock() // the worker stops at its next batch
	done := make(chan struct{})
	go func() {
		e.Flush()
		close(done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range e.shards[1:] {
		for s.processed.Load() != s.enqueued.Load() {
			if time.Now().After(deadline) {
				e.shards[0].skMu.Unlock()
				t.Fatal("Flush is waiting on the held shard without having handed the others their residue")
			}
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case <-done:
		t.Error("Flush returned while shard 0 still held its residue unapplied")
	default:
	}
	e.shards[0].skMu.Unlock()
	<-done
	if got, want := e.shards[0].processed.Load(), e.shards[0].enqueued.Load(); got != want || want != 10 {
		t.Fatalf("shard 0: %d of %d edges applied after Flush, want 10", got, want)
	}
}
