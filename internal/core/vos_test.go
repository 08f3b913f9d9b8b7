package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/stream"
)

func testConfig() Config {
	return Config{MemoryBits: 1 << 16, SketchBits: 256, Seed: 42}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{MemoryBits: 0, SketchBits: 10, Seed: 1},
		{MemoryBits: 100, SketchBits: 0, Seed: 1},
		{MemoryBits: 10, SketchBits: 100, Seed: 1},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(testConfig()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid config")
		}
	}()
	MustNew(Config{})
}

func TestPaperConfig(t *testing.T) {
	cfg := PaperConfig(5000, 100, 2, 7)
	if cfg.MemoryBits != 32*100*5000 {
		t.Errorf("m = %d", cfg.MemoryBits)
	}
	if cfg.SketchBits != 2*32*100 {
		t.Errorf("k = %d", cfg.SketchBits)
	}
	if _, err := New(cfg); err != nil {
		t.Errorf("paper config invalid: %v", err)
	}
}

func TestProcessUpdatesCardinality(t *testing.T) {
	v := MustNew(testConfig())
	v.Process(stream.Edge{User: 1, Item: 10, Op: stream.Insert})
	v.Process(stream.Edge{User: 1, Item: 11, Op: stream.Insert})
	v.Process(stream.Edge{User: 1, Item: 10, Op: stream.Delete})
	if v.Cardinality(1) != 1 {
		t.Errorf("n_u = %d, want 1", v.Cardinality(1))
	}
	if v.Cardinality(99) != 0 {
		t.Error("unknown user should have cardinality 0")
	}
	if v.Users() != 1 {
		t.Errorf("Users() = %d", v.Users())
	}
}

func TestInsertDeleteCancellationProperty(t *testing.T) {
	// Processing any multiset of edges and then their inverses restores
	// the empty sketch exactly — the core reason VOS handles deletions.
	err := quick.Check(func(users, items []uint16) bool {
		n := len(users)
		if len(items) < n {
			n = len(items)
		}
		v := MustNew(Config{MemoryBits: 4096, SketchBits: 64, Seed: 5})
		edges := make([]stream.Edge, 0, n)
		seen := map[[2]uint16]bool{}
		for idx := 0; idx < n; idx++ {
			key := [2]uint16{users[idx], items[idx]}
			if seen[key] {
				continue // keep the stream feasible
			}
			seen[key] = true
			e := stream.Edge{User: stream.User(users[idx]), Item: stream.Item(items[idx]), Op: stream.Insert}
			edges = append(edges, e)
			v.Process(e)
		}
		for _, e := range edges {
			v.Process(stream.Edge{User: e.User, Item: e.Item, Op: stream.Delete})
		}
		st := v.Stats()
		return st.OnesCount == 0 && st.Users == 0 && st.Beta == 0
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestDeletionInvariance(t *testing.T) {
	// A sketch that saw extra subscriptions followed by matching
	// unsubscriptions must be bit-identical to one that never saw them.
	cfg := testConfig()
	a := MustNew(cfg)
	b := MustNew(cfg)

	base := gen.PlantedPair(1, 2, 50, 50, 20, 3)
	for _, e := range base {
		a.Process(e)
		b.Process(e)
	}
	// b additionally subscribes user 1 to 500 transient items, then
	// unsubscribes all of them.
	for i := uint64(0); i < 500; i++ {
		b.Process(stream.Edge{User: 1, Item: stream.Item(7_000_000 + i), Op: stream.Insert})
	}
	for i := uint64(0); i < 500; i++ {
		b.Process(stream.Edge{User: 1, Item: stream.Item(7_000_000 + i), Op: stream.Delete})
	}

	ea := a.Query(1, 2)
	eb := b.Query(1, 2)
	if ea.Common != eb.Common || ea.Alpha != eb.Alpha || ea.Beta != eb.Beta {
		t.Errorf("deletion changed state: %+v vs %+v", ea, eb)
	}
}

func TestQueryAccuracyLowLoad(t *testing.T) {
	// Large array (β ~ 0) and a single planted pair: error should be a
	// few items on average.
	const (
		trials = 30
		sizeA  = 300
		sizeB  = 260
		common = 120
	)
	sumErr, sumJErr := 0.0, 0.0
	for trial := 0; trial < trials; trial++ {
		v := MustNew(Config{MemoryBits: 1 << 20, SketchBits: 2048, Seed: uint64(trial)})
		for _, e := range gen.PlantedPair(1, 2, sizeA, sizeB, common, int64(trial)) {
			v.Process(e)
		}
		est := v.Query(1, 2)
		sumErr += math.Abs(est.Common - common)
		trueJ := float64(common) / float64(sizeA+sizeB-common)
		sumJErr += math.Abs(est.Jaccard - trueJ)
	}
	if avg := sumErr / trials; avg > 12 {
		t.Errorf("mean |ŝ−s| = %.2f for s=%d, too large", avg, common)
	}
	if avgJ := sumJErr / trials; avgJ > 0.05 {
		t.Errorf("mean Jaccard error = %.3f, too large", avgJ)
	}
}

func TestQueryAccuracyUnderLoad(t *testing.T) {
	// Background users push β up; the β-correction must keep the
	// estimator usable (this is what distinguishes VOS from a plain odd
	// sketch in shared memory).
	const (
		trials = 20
		common = 100
		size   = 150
	)
	rng := rand.New(rand.NewSource(9))
	sumErr := 0.0
	betaSeen := 0.0
	for trial := 0; trial < trials; trial++ {
		v := MustNew(Config{MemoryBits: 1 << 15, SketchBits: 512, Seed: rng.Uint64()})
		// Background: 200 users with 30 items each.
		for u := stream.User(100); u < 300; u++ {
			for j := 0; j < 30; j++ {
				v.Process(stream.Edge{User: u, Item: stream.Item(rng.Uint64()), Op: stream.Insert})
			}
		}
		for _, e := range gen.PlantedPair(1, 2, size, size, common, int64(trial)) {
			v.Process(e)
		}
		est := v.Query(1, 2)
		betaSeen = est.Beta
		sumErr += math.Abs(est.Common - common)
	}
	if betaSeen < 0.05 {
		t.Fatalf("test not exercising load: β = %.3f", betaSeen)
	}
	if avg := sumErr / trials; avg > 30 {
		t.Errorf("mean |ŝ−s| = %.2f for s=%d at β=%.3f", avg, common, betaSeen)
	}
}

func TestQuerySelfSimilarity(t *testing.T) {
	v := MustNew(testConfig())
	for i := 0; i < 50; i++ {
		v.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
	}
	est := v.Query(1, 1)
	if est.Alpha != 0 {
		t.Errorf("self alpha = %v", est.Alpha)
	}
	if est.Jaccard != 1 {
		t.Errorf("self Jaccard = %v", est.Jaccard)
	}
	if est.SymmetricDifference != 0 {
		t.Errorf("self n̂Δ = %v", est.SymmetricDifference)
	}
}

func TestQueryEmptyUsers(t *testing.T) {
	v := MustNew(testConfig())
	est := v.Query(7, 8)
	if est.Jaccard != 0 || est.CommonClamped != 0 {
		t.Errorf("empty users: %+v", est)
	}
}

func TestEstimatorConvenienceMethods(t *testing.T) {
	v := MustNew(testConfig())
	for _, e := range gen.PlantedPair(1, 2, 100, 100, 50, 1) {
		v.Process(e)
	}
	est := v.Query(1, 2)
	if v.EstimateCommonItems(1, 2) != est.Common {
		t.Error("EstimateCommonItems inconsistent with Query")
	}
	if v.EstimateJaccard(1, 2) != est.Jaccard {
		t.Error("EstimateJaccard inconsistent with Query")
	}
}

func TestMergeEqualsSequential(t *testing.T) {
	cfg := testConfig()
	full := MustNew(cfg)
	shard1 := MustNew(cfg)
	shard2 := MustNew(cfg)

	edges := gen.Dynamize(
		gen.Bipartite(gen.Profile{Name: "m", Users: 40, Items: 80, Edges: 600,
			UserSkew: 1.5, ItemSkew: 1.3}, 4),
		gen.DynamizeConfig{EventProb: 0.01, DeleteFrac: 0.5, Seed: 4})
	for idx, e := range edges {
		full.Process(e)
		if idx%2 == 0 {
			shard1.Process(e)
		} else {
			shard2.Process(e)
		}
	}
	if err := shard1.Merge(shard2); err != nil {
		t.Fatal(err)
	}
	sf, sm := full.Stats(), shard1.Stats()
	if sf.OnesCount != sm.OnesCount || sf.Beta != sm.Beta {
		t.Errorf("merged array differs: %+v vs %+v", sf, sm)
	}
	for u := stream.User(0); u < 40; u++ {
		if full.Cardinality(u) != shard1.Cardinality(u) {
			t.Errorf("user %d cardinality %d vs %d", u, full.Cardinality(u), shard1.Cardinality(u))
		}
	}
	qf, qm := full.Query(0, 1), shard1.Query(0, 1)
	if qf.Common != qm.Common {
		t.Errorf("merged query differs: %v vs %v", qf.Common, qm.Common)
	}
}

// TestPartition: the parts merge back to the sketch byte for byte, every
// user's counter lies whole in the part stream.ShardOf names and in no other,
// and only part 0 carries array bits.
func TestPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	full := MustNew(testConfig())
	for i := 0; i < 3000; i++ {
		// Deletes of items never inserted included: negative counters split too.
		full.Process(stream.Edge{User: stream.User(rng.Intn(200)), Item: stream.Item(rng.Intn(500)), Op: stream.Op(rng.Intn(2))})
	}
	want, err := full.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 77
	for _, n := range []int{1, 2, 5} {
		parts := full.Partition(n, seed)
		if len(parts) != n {
			t.Fatalf("n=%d: %d parts", n, len(parts))
		}
		merged := MustNew(testConfig())
		for i := n - 1; i >= 0; i-- { // any order
			if i > 0 && parts[i].Beta() != 0 {
				t.Errorf("n=%d: part %d holds array bits", n, i)
			}
			if err := merged.Merge(parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got, _ := merged.MarshalBinary(); !bytes.Equal(got, want) {
			t.Errorf("n=%d: merge of the parts is not the sketch", n)
		}
		for u, c := range full.card.all {
			for i, p := range parts {
				if got, owner := p.Cardinality(u), i == stream.ShardOf(u, n, seed); owner && got != c || !owner && got != 0 {
					t.Errorf("n=%d: user %d (n_u=%d, owner %d) reads %d in part %d", n, u, c, stream.ShardOf(u, n, seed), got, i)
				}
			}
		}
	}
	if got, _ := full.MarshalBinary(); !bytes.Equal(got, want) {
		t.Error("Partition wrote the sketch it split")
	}
}

func TestMergeRejectsMismatchedConfig(t *testing.T) {
	a := MustNew(testConfig())
	b := MustNew(Config{MemoryBits: 1 << 16, SketchBits: 128, Seed: 42})
	if err := a.Merge(b); err == nil {
		t.Error("mismatched merge accepted")
	}
}

func TestBetaTracksArray(t *testing.T) {
	v := MustNew(Config{MemoryBits: 1024, SketchBits: 32, Seed: 1})
	if v.Beta() != 0 {
		t.Fatal("fresh sketch has nonzero β")
	}
	for i := 0; i < 100; i++ {
		v.Process(stream.Edge{User: stream.User(i), Item: stream.Item(i), Op: stream.Insert})
	}
	st := v.Stats()
	if v.Beta() != float64(st.OnesCount)/1024 {
		t.Errorf("β = %v, ones = %d", v.Beta(), st.OnesCount)
	}
	if st.MemoryBytes == 0 {
		t.Error("MemoryBytes should be positive")
	}
}

func TestBiasAndVarianceApproxMatchesSimulation(t *testing.T) {
	// Monte Carlo check of the re-derived delta-method formulas (see the
	// BiasApprox doc comment for why the arXiv-printed forms are not
	// used). Plant a pair with known nΔ under background load and compare
	// the empirical mean/variance of ŝ − s with the approximations.
	const (
		trials  = 150
		k       = 256
		m       = 1 << 16
		private = 32 // per side ⇒ nΔ = 64
		common  = 100
	)
	nDelta := float64(2 * private)
	var errs []float64
	var lastBias, lastVar float64
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < trials; trial++ {
		v := MustNew(Config{MemoryBits: m, SketchBits: k, Seed: rng.Uint64()})
		// Background load to push β to a realistic level (~0.1).
		for j := 0; j < 7000; j++ {
			v.Process(stream.Edge{User: stream.User(1000 + j%500), Item: stream.Item(rng.Uint64()), Op: stream.Insert})
		}
		for _, e := range gen.PlantedPair(1, 2, common+private, common+private, common, int64(trial)) {
			v.Process(e)
		}
		est := v.Query(1, 2)
		errs = append(errs, est.Common-common)
		lastBias = v.BiasApprox(nDelta)
		lastVar = v.VarianceApprox(nDelta)
	}
	mean, variance := meanVar(errs)

	seMean := math.Sqrt(lastVar / trials)
	if math.Abs(mean-lastBias) > 4*seMean+1 {
		t.Errorf("empirical bias %.2f vs approx %.2f (se %.2f)", mean, lastBias, seMean)
	}
	if ratio := variance / lastVar; ratio < 0.5 || ratio > 2.0 {
		t.Errorf("empirical var %.1f vs approx %.1f (ratio %.2f)", variance, lastVar, ratio)
	}
}

func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

func TestMarshalRoundTrip(t *testing.T) {
	v := MustNew(testConfig())
	for _, e := range gen.PlantedPair(3, 4, 80, 90, 40, 6) {
		v.Process(e)
	}
	data, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalVOS(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config() != v.Config() {
		t.Error("config lost")
	}
	if got.Cardinality(3) != v.Cardinality(3) || got.Cardinality(4) != v.Cardinality(4) {
		t.Error("cardinalities lost")
	}
	qa, qb := v.Query(3, 4), got.Query(3, 4)
	if qa != qb {
		t.Errorf("queries differ after round trip: %+v vs %+v", qa, qb)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	v := MustNew(Config{MemoryBits: 1024, SketchBits: 64, Seed: 2})
	v.Process(stream.Edge{User: 1, Item: 1, Op: stream.Insert})
	data, _ := v.MarshalBinary()

	// The single user's cardinality field sits after magic(4) + config(24)
	// + user count(8) + user id(8).
	const cardOff = 4 + 3*8 + 8 + 8
	zeroCard := append([]byte(nil), data...)
	for i := 0; i < 8; i++ {
		zeroCard[cardOff+i] = 0
	}

	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte{'X'}, data[1:]...),
		"truncated":  data[:20],
		"short body": data[:len(data)-3],
		// Process/Merge prune zeros, and the counter table reads a zero as an
		// empty slot: no zero-cardinality entry may load.
		"zero cardinality": zeroCard,
	}
	for name, d := range cases {
		if _, err := UnmarshalVOS(d); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// userRowsOff is where the user table's rows start in a serialized sketch:
// after magic(4) + config(24) + user count(8). A row is id(8) + count(8).
const userRowsOff = 4 + 3*8 + 8

// twoUserPayloads serializes a sketch of users 1 and 2 and derives the two
// payloads no MarshalBinary writes: dup names user 1 in both rows, swapped
// lists the rows in descending order.
func twoUserPayloads() (sorted, dup, swapped []byte) {
	v := MustNew(Config{MemoryBits: 1024, SketchBits: 64, Seed: 3})
	v.Process(edgeFor(1, 2, true))
	v.Process(edgeFor(2, 3, true))
	v.Process(edgeFor(2, 4, true))
	sorted, _ = v.MarshalBinary()
	row0, row1 := userRowsOff, userRowsOff+16
	dup = bytes.Clone(sorted)
	copy(dup[row1:row1+8], sorted[row0:row0+8])
	swapped = bytes.Clone(sorted)
	copy(swapped[row0:row0+16], sorted[row1:row1+16])
	copy(swapped[row1:row1+16], sorted[row0:row0+16])
	return sorted, dup, swapped
}

// TestUnmarshalRejectsDuplicateUser: a payload that names one user in two
// rows is corrupt — loaded, it would hold one user where its header counts
// two, and would not re-marshal to itself. Rows out of order stay accepted
// and re-marshal sorted. The same through a window bucket.
func TestUnmarshalRejectsDuplicateUser(t *testing.T) {
	sorted, dup, swapped := twoUserPayloads()
	if _, err := UnmarshalVOS(dup); !errors.Is(err, ErrCorrupt) {
		t.Errorf("duplicate user: err = %v, want ErrCorrupt", err)
	}
	got, err := UnmarshalVOS(swapped)
	if err != nil {
		t.Fatalf("unsorted user table rejected: %v", err)
	}
	if got.Users() != 2 || got.Cardinality(1) != 1 || got.Cardinality(2) != 2 {
		t.Errorf("unsorted user table: %d users, n_1 = %d, n_2 = %d", got.Users(), got.Cardinality(1), got.Cardinality(2))
	}
	if re, _ := got.MarshalBinary(); !bytes.Equal(re, sorted) {
		t.Error("unsorted user table does not re-marshal to the sorted bytes")
	}
	if _, err := UnmarshalWindow(windowOf(dup)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("duplicate user in a window bucket: err = %v, want ErrCorrupt", err)
	}
	if _, err := UnmarshalWindow(windowOf(swapped)); err != nil {
		t.Errorf("unsorted user table in a window bucket rejected: %v", err)
	}
}

// windowOf wraps one serialized sketch as a serialized one-bucket window.
func windowOf(bucket []byte) []byte {
	le := binary.LittleEndian
	out := append([]byte(nil), windowMagic[:]...)
	out = le.AppendUint64(out, uint64(time.Second)) // bucket duration
	out = le.AppendUint64(out, uint64(3*time.Second))
	out = le.AppendUint64(out, 1) // buckets
	out = le.AppendUint64(out, uint64(len(bucket)))
	return append(out, bucket...)
}

// TestMarshalRoundTripsNegativeCardinality pins that the zero-cardinality
// corruption check does NOT reject valid negative counters: delete-before-
// insert reordering leaves card[u] < 0 (stored as two's-complement uint64),
// and a checkpoint taken in that window must stay recoverable.
func TestMarshalRoundTripsNegativeCardinality(t *testing.T) {
	v := MustNew(Config{MemoryBits: 1024, SketchBits: 64, Seed: 2})
	v.Process(stream.Edge{User: 1, Item: 1, Op: stream.Delete}) // card[1] = -1
	data, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalVOS(data)
	if err != nil {
		t.Fatalf("negative-cardinality checkpoint rejected: %v", err)
	}
	if got.card.get(1) != -1 {
		t.Fatalf("card[1] = %d, want -1", got.card.get(1))
	}
	// The matching insert must still cancel the entry after recovery.
	got.Process(stream.Edge{User: 1, Item: 1, Op: stream.Insert})
	if got.Users() != 0 {
		t.Fatalf("Users() after cancellation = %d, want 0", got.Users())
	}
}

func TestProcessDeterministicAcrossInstances(t *testing.T) {
	cfg := testConfig()
	a, b := MustNew(cfg), MustNew(cfg)
	edges := gen.PlantedPair(1, 2, 50, 50, 25, 8)
	for _, e := range edges {
		a.Process(e)
		b.Process(e)
	}
	if a.Stats() != b.Stats() {
		t.Error("same stream, same config, different state")
	}
}

func BenchmarkProcess(b *testing.B) {
	v := MustNew(Config{MemoryBits: 1 << 24, SketchBits: 6400, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Process(stream.Edge{User: stream.User(i % 10000), Item: stream.Item(i), Op: stream.Insert})
	}
}

func BenchmarkQuery(b *testing.B) {
	v := MustNew(Config{MemoryBits: 1 << 24, SketchBits: 6400, Seed: 1})
	for _, e := range gen.PlantedPair(1, 2, 500, 500, 200, 1) {
		v.Process(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Query(1, 2)
	}
}

func TestMergeCommutativeAndAssociativeProperty(t *testing.T) {
	// Merge is XOR on arrays and addition on counters, so shard order
	// must not matter.
	cfg := Config{MemoryBits: 2048, SketchBits: 64, Seed: 9}
	err := quick.Check(func(usersA, usersB, usersC []uint8) bool {
		build := func(users []uint8, itemBase uint64) *VOS {
			v := MustNew(cfg)
			for idx, u := range users {
				v.Process(stream.Edge{
					User: stream.User(u),
					Item: stream.Item(itemBase + uint64(idx)),
					Op:   stream.Insert,
				})
			}
			return v
		}
		// (A ⊕ B) ⊕ C vs (C ⊕ B) ⊕ A — same multiset of edges.
		left := build(usersA, 0)
		if err := left.Merge(build(usersB, 1000)); err != nil {
			return false
		}
		if err := left.Merge(build(usersC, 2000)); err != nil {
			return false
		}
		right := build(usersC, 2000)
		if err := right.Merge(build(usersB, 1000)); err != nil {
			return false
		}
		if err := right.Merge(build(usersA, 0)); err != nil {
			return false
		}
		if left.Stats() != right.Stats() {
			return false
		}
		for u := 0; u < 256; u += 17 {
			if left.Cardinality(stream.User(u)) != right.Cardinality(stream.User(u)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestQueryIsReadOnly(t *testing.T) {
	v := MustNew(testConfig())
	for _, e := range gen.PlantedPair(1, 2, 60, 60, 30, 2) {
		v.Process(e)
	}
	before, _ := v.MarshalBinary()
	_ = v.Query(1, 2)
	r := v.RecoverSketch(1)
	for _, w := range []stream.User{2, 3, 4} {
		_ = v.QueryRecovered(r, w)
	}
	_ = v.EstimateJaccard(2, 1)
	_ = v.Beta()
	after, _ := v.MarshalBinary()
	if len(before) != len(after) {
		t.Fatal("query changed serialized size")
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("query mutated sketch state")
		}
	}
}
