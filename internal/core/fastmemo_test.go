package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

func fastMemoCfg() Config {
	return Config{MemoryBits: 1 << 14, SketchBits: 256, Seed: 42, Family: hashing.KindFast}
}

// memoEdges builds a churny workload over more users than the memo has
// slots, so hits, misses, collisions, and overwrites all occur.
func memoEdges(n int) []stream.Edge {
	rng := rand.New(rand.NewSource(7))
	edges := make([]stream.Edge, n)
	for i := range edges {
		u := stream.User(rng.Intn(3 * (1 << fastMemoBits)))
		op := stream.Insert
		if rng.Intn(3) == 0 {
			op = stream.Delete
		}
		edges[i] = stream.Edge{User: u, Item: stream.Item(rng.Intn(5000)), Op: op}
	}
	return edges
}

// TestFastMemoMatchesReadPath: the memoized ingest path must land every
// flip exactly where the memo-free read path (position) says it belongs —
// otherwise queries would recover a different sketch than ingest built.
func TestFastMemoMatchesReadPath(t *testing.T) {
	edges := memoEdges(20_000)

	v := MustNew(fastMemoCfg()) // memoized Process
	for _, e := range edges {
		v.Process(e)
	}

	w := MustNew(fastMemoCfg()) // oracle: flips via the read-path position()
	for _, e := range edges {
		j := w.slot(e.Item)
		w.arr.Flip(w.position(e.User, j))
		w.card.bump(e.User, opDelta(e.Op))
	}
	w.version = v.version

	got, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("memoized ingest diverged from the read-path position table")
	}
}

// TestFastMemoBatchMatchesSingle: ProcessBatch (memoized loop) equals
// per-edge Process, and a no-memo sketch equals both.
func TestFastMemoBatchMatchesSingle(t *testing.T) {
	edges := memoEdges(10_000)

	batch := MustNew(fastMemoCfg())
	batch.ProcessBatch(edges)

	single := MustNew(fastMemoCfg())
	for _, e := range edges {
		single.Process(e)
	}
	single.version = batch.version

	noMemo := MustNew(fastMemoCfg())
	noMemo.fastMemo = nil // benchmark baseline path: State per edge
	noMemo.ProcessBatch(edges)

	a, _ := batch.MarshalBinary()
	b, _ := single.MarshalBinary()
	c, _ := noMemo.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("ProcessBatch diverged from per-edge Process under the memo")
	}
	if !bytes.Equal(a, c) {
		t.Fatal("memoized ingest diverged from the memo-less path")
	}
}

// TestFastMemoCollisionOverwrite pins the direct-mapped overwrite: two
// users alternating in the same slot must still resolve to their own
// states every time.
func TestFastMemoCollisionOverwrite(t *testing.T) {
	v := MustNew(fastMemoCfg())
	// Find two users that collide in the memo index.
	idx := func(u uint64) uint64 { return (u * 0x9e3779b97f4a7c15) >> (64 - fastMemoBits) }
	var a, b uint64
	target := idx(1)
	a = 1
	for u := uint64(2); ; u++ {
		if idx(u) == target {
			b = u
			break
		}
	}
	for i := 0; i < 100; i++ {
		for _, u := range []uint64{a, b} {
			if got, want := v.fastState(u), v.fslots.State(u); got != want {
				t.Fatalf("iteration %d: fastState(%d) = %#x, want %#x", i, u, got, want)
			}
		}
	}
}

// benchmarkIngest drives ProcessBatch over a recurring-user workload.
func benchmarkIngest(b *testing.B, memo bool) {
	v := MustNew(fastMemoCfg())
	if !memo {
		v.fastMemo = nil
	}
	edges := make([]stream.Edge, 4096)
	for i := range edges {
		// 64 hot users — the shape the memo exists for.
		edges[i] = stream.Edge{User: stream.User(i % 64), Item: stream.Item(i), Op: stream.Insert}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ProcessBatch(edges)
	}
	b.SetBytes(int64(len(edges)))
}

// BenchmarkFastIngest{Memo,NoMemo} measure the full ingest loop — where
// the memo's saving competes with the slot hash, the bitset flip, and the
// cardinality-map update; BenchmarkFastPosition{Memo,NoMemo} isolate the
// single-slot position computation itself, the part the memo accelerates
// (a memo hit replaces the per-edge Hash64 state derivation with one
// multiply-indexed load).
func BenchmarkFastIngestMemo(b *testing.B)   { benchmarkIngest(b, true) }
func BenchmarkFastIngestNoMemo(b *testing.B) { benchmarkIngest(b, false) }

var benchPosSink uint64

func benchmarkPosition(b *testing.B, memo bool) {
	v := MustNew(fastMemoCfg())
	if !memo {
		v.fastMemo = nil
	}
	k := uint64(v.cfg.SketchBits)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := uint64(i) & 63 // recurring hot users: the memo's target shape
		sink += hashing.PositionFromState(v.fastState(u), int(uint64(i)%k), v.cfg.MemoryBits)
	}
	benchPosSink = sink
}

func BenchmarkFastPositionMemo(b *testing.B)   { benchmarkPosition(b, true) }
func BenchmarkFastPositionNoMemo(b *testing.B) { benchmarkPosition(b, false) }
