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

// memoEdges builds a churny workload in which users recur heavily. (The
// names in this file date from a per-user state memo the fast family's write
// path once kept; the tests pin what it had to preserve, and still must.)
func memoEdges(n int) []stream.Edge {
	rng := rand.New(rand.NewSource(7))
	edges := make([]stream.Edge, n)
	for i := range edges {
		u := stream.User(rng.Intn(3072))
		op := stream.Insert
		if rng.Intn(3) == 0 {
			op = stream.Delete
		}
		edges[i] = stream.Edge{User: u, Item: stream.Item(rng.Intn(5000)), Op: op}
	}
	return edges
}

// TestFastMemoMatchesReadPath: the ingest path must land every flip exactly
// where the read path's position table (fillPositions) says it belongs —
// otherwise queries would recover a different sketch than ingest built.
func TestFastMemoMatchesReadPath(t *testing.T) {
	edges := memoEdges(20_000)

	v := MustNew(fastMemoCfg())
	for _, e := range edges {
		v.Process(e)
	}

	w := MustNew(fastMemoCfg()) // oracle: flips via the read-path table
	table := make([]uint64, w.cfg.SketchBits)
	for _, e := range edges {
		w.fillPositions(table, e.User)
		w.arr.Flip(table[w.slot(e.Item)])
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
		t.Fatal("ingest diverged from the read-path position table")
	}
}

// TestFastMemoBatchMatchesSingle: ProcessBatch equals per-edge Process.
func TestFastMemoBatchMatchesSingle(t *testing.T) {
	edges := memoEdges(10_000)

	batch := MustNew(fastMemoCfg())
	batch.ProcessBatch(edges)

	single := MustNew(fastMemoCfg())
	for _, e := range edges {
		single.Process(e)
	}
	single.version = batch.version

	a, _ := batch.MarshalBinary()
	b, _ := single.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("ProcessBatch diverged from per-edge Process")
	}
}

// TestFastMemoCollisionOverwrite: two users alternating on the write path
// stay apart — each one's toggles land at its own read-path positions every
// time, whatever the other did in between.
func TestFastMemoCollisionOverwrite(t *testing.T) {
	v := MustNew(fastMemoCfg())
	const a, b = stream.User(1), stream.User(988) // shared a slot of the old memo
	var pos [2]uint64
	for i := 0; i < 100; i++ {
		item := stream.Item(i)
		v.togglePositions(pos[:], []stream.Edge{{User: a, Item: item}, {User: b, Item: item}})
		for n, u := range []stream.User{a, b} {
			if want := v.fslots.HashRange(v.slot(item), uint64(u), v.cfg.MemoryBits); pos[n] != want {
				t.Fatalf("iteration %d: user %d toggles %d, its read-path position is %d", i, u, pos[n], want)
			}
		}
	}
}

// BenchmarkFastIngest measures the full ingest loop over a recurring-user
// workload.
func BenchmarkFastIngest(b *testing.B) {
	v := MustNew(fastMemoCfg())
	edges := make([]stream.Edge, 4096)
	for i := range edges {
		edges[i] = stream.Edge{User: stream.User(i % 64), Item: stream.Item(i), Op: stream.Insert}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.ProcessBatch(edges)
	}
	b.SetBytes(int64(len(edges)))
}

var benchPosSink uint64

// BenchmarkFastPosition isolates the single-slot position computation of the
// write path: one Hash64 for the user's state, one finalizer for the slot.
func BenchmarkFastPosition(b *testing.B) {
	v := MustNew(fastMemoCfg())
	k := uint64(v.cfg.SketchBits)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += v.position(stream.User(uint64(i)&63), int(uint64(i)%k))
	}
	benchPosSink = sink
}
