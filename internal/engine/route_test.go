package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	e := MustNew(Config{Sketch: routeConfig(), Shards: shards, BatchSize: batch, FlushInterval: -1})
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
// allocate: 4,096 edges over 2 shards, ProcessBatch then Flush, workers
// included (AllocsPerRun counts every goroutine's). Growing the groups by
// append and copying them onto the pending batch cost 41 allocations and
// 4.4 times the edges' own bytes; the counting partition needs the owners,
// the offsets, the buffer, a batch list per shard, Flush's targets and a
// journal regrowth now and then.
func TestRouteAllocations(t *testing.T) {
	e := MustNew(Config{Sketch: core.Config{MemoryBits: 1 << 21, SketchBits: 6400, Seed: 7}, Shards: 2, FlushInterval: -1})
	defer e.Close()
	edges := feasibleStream(4096, 2000, 0.25, 3)
	allocs := testing.AllocsPerRun(50, func() {
		if err := e.ProcessBatch(edges); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	})
	if allocs > 16 {
		t.Fatalf("a 4,096-edge 2-shard ProcessBatch+Flush made %.0f allocations, ceiling 16", allocs)
	}
}

// TestFlushUnderProducers: Flush's contract with writers running — every
// edge accepted before the call is applied when it returns. FlushInterval is
// off, so nothing but Flush hands a residue over: a target cut ahead of what
// is pending would leave Flush waiting for edges nobody is going to send.
func TestFlushUnderProducers(t *testing.T) {
	e := MustNew(Config{Sketch: testConfig(), Shards: 3, BatchSize: 32, QueueSize: 256, FlushInterval: -1})
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
	e := MustNew(Config{Sketch: testConfig(), Shards: 3, BatchSize: 64, FlushInterval: -1})
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
