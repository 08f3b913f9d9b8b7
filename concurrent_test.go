package vos_test

import (
	"sync"
	"testing"

	"github.com/vossketch/vos"
)

func concurrentTestStream(t *testing.T) []vos.Edge {
	t.Helper()
	// Two heavily overlapping users plus background noise, with
	// unsubscriptions, all feasible: inserts are unique (user, item)
	// pairs and deletes only remove live edges.
	var edges []vos.Edge
	for i := 0; i < 400; i++ {
		edges = append(edges, vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Insert})
	}
	for i := 200; i < 600; i++ {
		edges = append(edges, vos.Edge{User: 2, Item: vos.Item(i), Op: vos.Insert})
	}
	for u := vos.User(3); u < 40; u++ {
		for i := 0; i < 50; i++ {
			edges = append(edges, vos.Edge{User: u, Item: vos.Item(int(u)*1000 + i), Op: vos.Insert})
		}
	}
	for i := 300; i < 400; i++ { // user 1 drops 100 shared items
		edges = append(edges, vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Delete})
	}
	return edges
}

// TestConcurrentSketchMatchesSequential runs concurrent writers (one per
// user partition, so per-user order is preserved) against concurrent
// readers of a 1-shard Engine, then demands the final state match a
// sequential sketch exactly. Run with -race to exercise the locking.
func TestConcurrentSketchMatchesSequential(t *testing.T) {
	cfg := vos.Config{MemoryBits: 1 << 18, SketchBits: 512, Seed: 3}
	edges := concurrentTestStream(t)

	seq := vos.MustNew(cfg)
	for _, e := range edges {
		seq.Process(e)
	}

	cs, err := vos.NewEngine(vos.EngineConfig{Sketch: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	const writers = 4
	parts := vos.PartitionByUser(edges, writers, 77)
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part []vos.Edge) {
			defer wg.Done()
			for _, e := range part {
				if err := cs.Process(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(part)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				est := cs.Query(1, 2)
				if est.Jaccard < 0 || est.Jaccard > 1 {
					t.Errorf("mid-stream Jaccard out of range: %v", est.Jaccard)
					return
				}
				_ = cs.Cardinality(1)
				_ = cs.Stats().Beta
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	cs.Flush()

	if got, want := cs.Stats(), seq.Stats(); got != want {
		t.Fatalf("concurrent stats %+v, sequential %+v", got, want)
	}
	if got, want := cs.Query(1, 2), seq.Query(1, 2); got != want {
		t.Fatalf("concurrent Query %+v, sequential %+v", got, want)
	}
}

// TestConcurrentSnapshotMergeRoundTrip: MarshalBinary restores via
// Unmarshal, and ImportSketch folds a shard sketch in exactly.
func TestConcurrentSnapshotMergeRoundTrip(t *testing.T) {
	cfg := vos.Config{MemoryBits: 1 << 16, SketchBits: 256, Seed: 8}
	cs, err := vos.NewEngine(vos.EngineConfig{Sketch: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	process := func(e vos.Edge) {
		t.Helper()
		if err := cs.Process(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		process(vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Insert})
		process(vos.Edge{User: 2, Item: vos.Item(i + 100), Op: vos.Insert})
	}

	data, err := cs.MarshalBinary() // flushes first
	if err != nil {
		t.Fatal(err)
	}
	restored, err := vos.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Query(1, 2), cs.Query(1, 2); got != want {
		t.Fatalf("restored Query %+v, live %+v", got, want)
	}

	// Merge a shard built separately; result must equal one sketch that
	// saw both streams.
	shard := vos.MustNew(cfg)
	all := vos.MustNew(cfg)
	for i := 0; i < 200; i++ {
		all.Process(vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Insert})
		all.Process(vos.Edge{User: 2, Item: vos.Item(i + 100), Op: vos.Insert})
	}
	for i := 0; i < 150; i++ {
		e := vos.Edge{User: 3, Item: vos.Item(i), Op: vos.Insert}
		shard.Process(e)
		all.Process(e)
	}
	if err := cs.ImportSketch(marshalSketch(t, shard)); err != nil {
		t.Fatal(err)
	}
	if got, want := cs.Query(1, 3), all.Query(1, 3); got != want {
		t.Fatalf("post-merge Query %+v, want %+v", got, want)
	}

	// Config mismatch must be rejected.
	bad := vos.MustNew(vos.Config{MemoryBits: 1 << 16, SketchBits: 256, Seed: 9})
	if err := cs.ImportSketch(marshalSketch(t, bad)); err == nil {
		t.Fatal("merge with mismatched config accepted")
	}
}
