package vos_test

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/vossketch/vos"
)

// The core loop: stream subscription events through the sketch, query any
// pair at any time. Deletions are exact — the two Process calls for the
// same edge cancel completely.
func ExampleSketch() {
	sk := vos.MustNew(vos.Config{MemoryBits: 1 << 20, SketchBits: 2048, Seed: 1})

	// Users 1 and 2 share items 100-149.
	for i := 0; i < 100; i++ {
		sk.Process(vos.Edge{User: 1, Item: vos.Item(i + 100), Op: vos.Insert})
		sk.Process(vos.Edge{User: 2, Item: vos.Item(i + 150), Op: vos.Insert})
	}
	est := sk.Query(1, 2)
	fmt.Printf("cardinalities: %d and %d\n", est.CardinalityU, est.CardinalityV)
	fmt.Printf("true common items: 50, estimate within 25: %v\n",
		est.Common > 25 && est.Common < 75)
	// Output:
	// cardinalities: 100 and 100
	// true common items: 50, estimate within 25: true
}

// Insert followed by Delete of the same edge restores the sketch exactly:
// state depends only on the current graph, never on churn history.
func ExampleSketch_deletions() {
	sk := vos.MustNew(vos.Config{MemoryBits: 4096, SketchBits: 128, Seed: 7})
	before := sk.Stats()

	sk.Process(vos.Edge{User: 9, Item: 1234, Op: vos.Insert})
	sk.Process(vos.Edge{User: 9, Item: 1234, Op: vos.Delete})

	after := sk.Stats()
	fmt.Println("state restored:", before == after)
	// Output:
	// state restored: true
}

// Estimators are interchangeable behind one interface; the factory builds
// them memory-equalised the way the paper's evaluation compares them.
func ExampleNewEstimator() {
	budget := vos.Budget{K32: 100, Users: 1000, Lambda: 2}
	for _, method := range vos.Methods {
		est, err := vos.NewEstimator(method, budget, 1)
		if err != nil {
			panic(err)
		}
		est.Process(vos.Edge{User: 1, Item: 42, Op: vos.Insert})
		fmt.Printf("%s n_1=%d\n", est.Name(), est.Cardinality(1))
	}
	// Output:
	// MinHash n_1=1
	// OPH n_1=1
	// RP n_1=1
	// VOS n_1=1
}

// Sketches of stream shards merge exactly: build per-worker sketches in
// parallel and combine.
func ExampleSketch_Merge() {
	cfg := vos.Config{MemoryBits: 1 << 16, SketchBits: 512, Seed: 3}
	whole := vos.MustNew(cfg)
	shardA := vos.MustNew(cfg)
	shardB := vos.MustNew(cfg)

	edges := []vos.Edge{
		{User: 1, Item: 10, Op: vos.Insert},
		{User: 2, Item: 10, Op: vos.Insert},
		{User: 1, Item: 11, Op: vos.Insert},
		{User: 1, Item: 11, Op: vos.Delete},
	}
	for i, e := range edges {
		whole.Process(e)
		if i%2 == 0 {
			shardA.Process(e)
		} else {
			shardB.Process(e)
		}
	}
	if err := shardA.Merge(shardB); err != nil {
		panic(err)
	}
	fmt.Println("merged equals sequential:", shardA.Stats() == whole.Stats())
	// Output:
	// merged equals sequential: true
}

// Sliding-window similarity: EngineConfig.Window keeps the last
// Buckets·BucketDuration of stream time, queries cover only that window,
// and rotating retires the oldest bucket in O(sketch) — here a two-bucket
// window on a fixed clock forgets the first minute's subscriptions while
// keeping the second's.
func ExampleWindowConfig() {
	var clock atomic.Int64 // seconds since the Unix epoch
	clock.Store(30)
	eng, err := vos.NewEngine(vos.EngineConfig{
		Sketch: vos.Config{MemoryBits: 1 << 16, SketchBits: 512, Seed: 42},
		Shards: 1,
		Window: &vos.WindowConfig{
			Buckets:        2, // two 1-minute buckets
			BucketDuration: time.Minute,
			Now:            func() time.Time { return time.Unix(clock.Load(), 0) },
		},
	})
	if err != nil {
		panic(err)
	}
	defer eng.Close()

	// Minute one: alice and bob both pick up item 7.
	eng.Process(vos.Edge{User: 1, Item: 7, Op: vos.Insert})
	eng.Process(vos.Edge{User: 2, Item: 7, Op: vos.Insert})
	eng.Flush()
	fmt.Printf("minute 1: common=%.0f\n", eng.Query(1, 2).CommonClamped)

	// Two minutes later the shared pick has aged out of the window; only
	// bob's fresh subscription from minute two survives.
	clock.Store(61)
	eng.Process(vos.Edge{User: 2, Item: 9, Op: vos.Insert})
	clock.Store(121)
	eng.Flush()
	fmt.Printf("minute 3: common=%.0f, bob still holds %d item\n",
		eng.Query(1, 2).CommonClamped, eng.Cardinality(2))
	// Output:
	// minute 1: common=1
	// minute 3: common=0, bob still holds 1 item
}

// String identifiers map into the key space with stable hashes.
func ExampleUserFromString() {
	a := vos.UserFromString("alice")
	b := vos.UserFromString("alice")
	fmt.Println("stable:", a == b)
	// Output:
	// stable: true
}
