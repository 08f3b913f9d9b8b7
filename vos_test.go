package vos_test

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"github.com/vossketch/vos"
)

func TestQuickstartFlow(t *testing.T) {
	sk := vos.MustNew(vos.Config{MemoryBits: 1 << 20, SketchBits: 2048, Seed: 1})
	alice := vos.UserFromString("alice")
	bob := vos.UserFromString("bob")

	for i := 0; i < 200; i++ {
		sk.Process(vos.Edge{User: alice, Item: vos.Item(i), Op: vos.Insert})
	}
	for i := 100; i < 300; i++ {
		sk.Process(vos.Edge{User: bob, Item: vos.Item(i), Op: vos.Insert})
	}
	// Alice unsubscribes [0, 50): sets are now [50, 200) and [100, 300).
	for i := 0; i < 50; i++ {
		sk.Process(vos.Edge{User: alice, Item: vos.Item(i), Op: vos.Delete})
	}
	est := sk.Query(alice, bob)
	if math.Abs(est.Common-100) > 25 {
		t.Errorf("common ≈ %f, want ~100", est.Common)
	}
	trueJ := 100.0 / 250.0
	if math.Abs(est.Jaccard-trueJ) > 0.12 {
		t.Errorf("jaccard ≈ %f, want ~%f", est.Jaccard, trueJ)
	}
	if est.CardinalityU != 150 || est.CardinalityV != 200 {
		t.Errorf("cardinalities %d/%d", est.CardinalityU, est.CardinalityV)
	}
}

func TestStringKeysStable(t *testing.T) {
	if vos.UserFromString("x") != vos.UserFromString("x") {
		t.Error("UserFromString unstable")
	}
	if vos.ItemFromString("x") == vos.ItemFromString("y") {
		t.Error("distinct items collided")
	}
	if uint64(vos.UserFromString("x")) == uint64(vos.ItemFromString("x")) {
		t.Error("user and item key spaces should differ")
	}
}

func TestEstimatorFactoryAllMethods(t *testing.T) {
	b := vos.Budget{K32: 50, Users: 100, Lambda: 2}
	for _, m := range append([]string{vos.MethodExact}, vos.Methods...) {
		est, err := vos.NewEstimator(m, b, 1)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		est.Process(vos.Edge{User: 1, Item: 1, Op: vos.Insert})
		if est.Cardinality(1) != 1 {
			t.Errorf("%s: cardinality broken", m)
		}
	}
}

func TestProcessAllAndValidate(t *testing.T) {
	edges := []vos.Edge{
		{User: 1, Item: 1, Op: vos.Insert},
		{User: 2, Item: 1, Op: vos.Insert},
		{User: 1, Item: 1, Op: vos.Delete},
	}
	if err := vos.Validate(edges); err != nil {
		t.Fatalf("feasible stream rejected: %v", err)
	}
	est := vos.NewExact()
	vos.ProcessAll(est, edges)
	if est.Cardinality(1) != 0 || est.Cardinality(2) != 1 {
		t.Error("ProcessAll misapplied")
	}
	bad := []vos.Edge{{User: 1, Item: 1, Op: vos.Delete}}
	if vos.Validate(bad) == nil {
		t.Error("infeasible stream accepted")
	}
}

func TestTopSimilarFacade(t *testing.T) {
	est := vos.NewExact()
	vos.ProcessAll(est, []vos.Edge{
		{User: 1, Item: 10, Op: vos.Insert},
		{User: 2, Item: 10, Op: vos.Insert},
		{User: 3, Item: 99, Op: vos.Insert},
	})
	got := vos.TopSimilar(est, 1, []vos.User{2, 3}, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("TopSimilar = %v", got)
	}
}

func TestSerializationFacade(t *testing.T) {
	sk := vos.MustNew(vos.Config{MemoryBits: 4096, SketchBits: 128, Seed: 9})
	sk.Process(vos.Edge{User: 5, Item: 6, Op: vos.Insert})
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := vos.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality(5) != 1 {
		t.Error("round trip lost state")
	}
}

// The four TestConcurrent* tests (two here, two in concurrent_test.go) were
// written against the mutex-wrapped sketch this module used to export; they
// now run against a 1-shard Engine, its replacement, with every assertion
// kept.
func TestConcurrentSketch(t *testing.T) {
	c, err := vos.NewEngine(vos.EngineConfig{
		Sketch: vos.Config{MemoryBits: 1 << 16, SketchBits: 512, Seed: 3},
		Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				err := c.Process(vos.Edge{
					User: vos.User(w),
					Item: vos.Item(w*1000 + i),
					Op:   vos.Insert,
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = c.Query(0, 1)
				_ = c.Stats().Beta
			}
		}()
	}
	wg.Wait()
	c.Flush()
	if c.Cardinality(0) != 500 {
		t.Errorf("cardinality %d after concurrent writes", c.Cardinality(0))
	}
	snap, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := vos.Unmarshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Cardinality(3) != 500 {
		t.Error("snapshot lost state")
	}
}

func TestConcurrentMergeShards(t *testing.T) {
	cfg := vos.Config{MemoryBits: 1 << 14, SketchBits: 256, Seed: 7}
	main, err := vos.NewEngine(vos.EngineConfig{Sketch: cfg, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer main.Close()
	shard := vos.MustNew(cfg)
	shard.Process(vos.Edge{User: 1, Item: 2, Op: vos.Insert})
	if err := main.ImportSketch(marshalSketch(t, shard)); err != nil {
		t.Fatal(err)
	}
	if main.Cardinality(1) != 1 {
		t.Error("merge lost state")
	}
	bad := vos.MustNew(vos.Config{MemoryBits: 1 << 14, SketchBits: 128, Seed: 7})
	if err := main.ImportSketch(marshalSketch(t, bad)); err == nil {
		t.Error("mismatched merge accepted")
	}
}

// marshalSketch serializes a sketch for Engine.ImportSketch.
func marshalSketch(t *testing.T, sk *vos.Sketch) []byte {
	t.Helper()
	data, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestStreamIOFacade(t *testing.T) {
	edges := []vos.Edge{
		{User: 1, Item: 2, Op: vos.Insert},
		{User: 1, Item: 2, Op: vos.Delete},
	}
	var txt, bin bytes.Buffer
	if err := vos.WriteStreamText(&txt, edges); err != nil {
		t.Fatal(err)
	}
	if err := vos.WriteStreamBinary(&bin, edges); err != nil {
		t.Fatal(err)
	}
	fromTxt, err := vos.ReadStreamText(&txt)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := vos.ReadStreamBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	for i := range edges {
		if fromTxt[i] != edges[i] || fromBin[i] != edges[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestPaperConfigFacade(t *testing.T) {
	cfg := vos.PaperConfig(1000, 100, 2, 5)
	if cfg.MemoryBits != 32*100*1000 || cfg.SketchBits != 6400 {
		t.Errorf("PaperConfig = %+v", cfg)
	}
}
