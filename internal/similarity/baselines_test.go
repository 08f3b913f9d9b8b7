package similarity_test

// The baselines' bad-k, unknown-user, static-accuracy and common-items
// checks, one test per method each, MinHash's deletion and signature
// tests, OPH's bin, deletion and densification tests, and RP's cardinality,
// sampler, uniformity (insert-only, after deletions, after delete then
// reinsert), common-items, churn-unbiasedness, clamping and determinism
// tests.

import (
	"math"
	"testing"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/similarity"
	"github.com/vossketch/vos/internal/stream"
)

func process(s similarity.Estimator, edges []stream.Edge) {
	for _, e := range edges {
		s.Process(e)
	}
}

func TestMinHashNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 should panic")
		}
	}()
	similarity.NewMinHash(0, 1)
}

func TestMinHashEstimateUnknownUsers(t *testing.T) {
	s := similarity.NewMinHash(8, 1)
	if s.EstimateJaccard(5, 6) != 0 {
		t.Error("unknown users should estimate 0")
	}
}

func TestMinHashStaticJaccardAccuracy(t *testing.T) {
	// Insertion-only streams: MinHash is unbiased. Average over seeds.
	const (
		trials = 25
		k      = 256
		size   = 400
	)
	for _, wantJ := range []float64{0.1, 0.5, 0.9} {
		common := gen.PlantedJaccard(size, wantJ)
		trueJ := float64(common) / float64(2*size-common)
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			s := similarity.NewMinHash(k, uint64(trial))
			process(s, gen.PlantedPair(1, 2, size, size, common, int64(trial)))
			sum += s.EstimateJaccard(1, 2)
		}
		avg := sum / trials
		if math.Abs(avg-trueJ) > 0.04 {
			t.Errorf("J=%.2f: mean estimate %.3f", trueJ, avg)
		}
	}
}

func TestMinHashCommonItemsIdentity(t *testing.T) {
	const size, common = 300, 150
	s := similarity.NewMinHash(512, 3)
	process(s, gen.PlantedPair(1, 2, size, size, common, 5))
	est := s.EstimateCommonItems(1, 2)
	if math.Abs(est-common)/common > 0.25 {
		t.Errorf("ŝ = %.1f, want ~%d", est, common)
	}
	if s.Cardinality(1) != size || s.Cardinality(2) != size {
		t.Error("cardinality tracking wrong")
	}
}

func TestMinHashDeletionEmptiesRegister(t *testing.T) {
	s := similarity.NewMinHash(16, 1)
	s.Process(stream.Edge{User: 1, Item: 77, Op: stream.Insert})
	// Every register now holds item 77; deleting it empties all.
	s.Process(stream.Edge{User: 1, Item: 77, Op: stream.Delete})
	sig, occ := s.Signature(1)
	for j, h := range sig {
		if occ[j] {
			t.Errorf("register %d not emptied: %x", j, h)
		}
	}
	if s.Cardinality(1) != 0 {
		t.Errorf("cardinality %d", s.Cardinality(1))
	}
}

func TestMinHashDeletionOfNonMinimumKeepsRegister(t *testing.T) {
	s := similarity.NewMinHash(8, 2)
	s.Process(stream.Edge{User: 1, Item: 1, Op: stream.Insert})
	s.Process(stream.Edge{User: 1, Item: 2, Op: stream.Insert})
	before, _ := s.Signature(1)
	// For each register, deleting the item that is NOT the minimum must
	// leave the register unchanged. Delete both items from a clone-like
	// second user to find which one is the min per register; simpler:
	// delete item 2, then registers whose min was item 1 are unchanged.
	s.Process(stream.Edge{User: 1, Item: 2, Op: stream.Delete})
	after, occ := s.Signature(1)
	changed := 0
	for j := range before {
		if before[j] != after[j] {
			changed++
			if occ[j] {
				t.Errorf("register %d changed to a non-empty value", j)
			}
		}
	}
	if changed == len(before) {
		t.Error("all registers emptied; min detection broken")
	}
}

func TestMinHashDeletionBiasExists(t *testing.T) {
	// The documented §III flaw: after deletions, registers empty out and
	// the estimator loses matches it should keep, underestimating J.
	// Two identical sets (J=1): subscribe 200 shared items, then
	// unsubscribe 150 of them from both users. True J of the remaining
	// 50 shared items is still 1.0, but emptied registers never refill.
	const k = 128
	sumJ := 0.0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		s := similarity.NewMinHash(k, uint64(trial))
		for i := 0; i < 200; i++ {
			s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
			s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Insert})
		}
		for i := 0; i < 150; i++ {
			s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Delete})
			s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Delete})
		}
		sumJ += s.EstimateJaccard(1, 2)
	}
	avgJ := sumJ / trials
	if avgJ > 0.6 {
		t.Errorf("expected strong underestimate of J=1 after deletions, got %.3f"+
			" (bias disappeared; baseline no longer reproduces the paper's flaw)", avgJ)
	}
}

// TestMinHashFromSet: the static signature of an item set, the classic
// (insertion-only) use of the method.
func TestMinHashFromSet(t *testing.T) {
	fromSet := func() *similarity.MinHash {
		s := similarity.NewMinHash(64, 9)
		for _, it := range []stream.Item{10, 20, 30} {
			s.Process(stream.Edge{User: 0, Item: it, Op: stream.Insert})
		}
		return s
	}
	a, b := fromSet(), fromSet()
	sa, occ := a.Signature(0)
	sb, _ := b.Signature(0)
	for j := range sa {
		if sa[j] != sb[j] {
			t.Fatal("signature of a set not deterministic")
		}
		if !occ[j] {
			t.Fatal("register empty after inserts")
		}
	}
	if a.EstimateJaccard(0, 0) != 1 {
		t.Error("self Jaccard should be 1")
	}
}

func TestOPHNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 should panic")
		}
	}()
	similarity.NewOPH(0, 1)
}

func TestOPHEstimateUnknownUsers(t *testing.T) {
	s := similarity.NewOPH(8, 1)
	if s.EstimateJaccard(5, 6) != 0 {
		t.Error("unknown users should estimate 0")
	}
	if s.EstimateCommonItems(5, 6) != 0 {
		t.Error("unknown users common should be 0")
	}
}

func TestOPHStaticJaccardAccuracy(t *testing.T) {
	const (
		trials = 25
		k      = 256
		size   = 500 // > k so most bins are occupied
	)
	for _, wantJ := range []float64{0.1, 0.5, 0.9} {
		common := gen.PlantedJaccard(size, wantJ)
		trueJ := float64(common) / float64(2*size-common)
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			s := similarity.NewOPH(k, uint64(trial))
			process(s, gen.PlantedPair(1, 2, size, size, common, int64(trial)))
			sum += s.EstimateJaccard(1, 2)
		}
		avg := sum / trials
		if math.Abs(avg-trueJ) > 0.05 {
			t.Errorf("J=%.2f: mean estimate %.3f", trueJ, avg)
		}
	}
}

func TestOPHCommonItemsIdentity(t *testing.T) {
	const size, common = 600, 300
	s := similarity.NewOPH(256, 3)
	process(s, gen.PlantedPair(1, 2, size, size, common, 5))
	est := s.EstimateCommonItems(1, 2)
	if math.Abs(est-common)/common > 0.25 {
		t.Errorf("ŝ = %.1f, want ~%d", est, common)
	}
}

func TestOPHSparseSetsUseNonEmptyDenominator(t *testing.T) {
	// Few items, many bins: the NIPS'12 estimator must divide by the
	// non-empty bin count, not k, or sparse sets would be crushed to ~0.
	const k = 512
	s := similarity.NewOPH(k, 7)
	items := []stream.Item{1, 2, 3, 4, 5}
	for _, it := range items {
		s.Process(stream.Edge{User: 1, Item: it, Op: stream.Insert})
		s.Process(stream.Edge{User: 2, Item: it, Op: stream.Insert})
	}
	if got := s.EstimateJaccard(1, 2); got != 1 {
		t.Errorf("identical sparse sets: Ĵ = %v, want 1", got)
	}
}

func TestOPHProcessTouchesOneBin(t *testing.T) {
	// O(1) semantics: an insert may change at most one register.
	s := similarity.NewOPH(64, 3)
	s.Process(stream.Edge{User: 1, Item: 100, Op: stream.Insert})
	before, occBefore := s.Signature(1)
	s.Process(stream.Edge{User: 1, Item: 200, Op: stream.Insert})
	after, occAfter := s.Signature(1)
	changed := 0
	for j := range before {
		if before[j] != after[j] || occBefore[j] != occAfter[j] {
			changed++
		}
	}
	if changed > 1 {
		t.Errorf("insert changed %d bins", changed)
	}
}

func TestOPHDeletionEmptiesOnlyOwningBin(t *testing.T) {
	s := similarity.NewOPH(32, 5)
	s.Process(stream.Edge{User: 1, Item: 42, Op: stream.Insert})
	_, occ := s.Signature(1)
	occupied := 0
	for _, o := range occ {
		if o {
			occupied++
		}
	}
	if occupied != 1 {
		t.Fatalf("one insert occupied %d bins", occupied)
	}
	s.Process(stream.Edge{User: 1, Item: 42, Op: stream.Delete})
	_, occ = s.Signature(1)
	for j, o := range occ {
		if o {
			t.Errorf("bin %d still occupied after deleting its only item", j)
		}
	}
}

func TestOPHDeletionBiasExists(t *testing.T) {
	// The §III sampling bias depends on the *history*, not just the
	// final sets: user 1 inserts [100, 400) directly, user 2 inserts
	// [0, 400) and then unsubscribes [0, 100). Both end with the same
	// set, so true J = 1, but each bin of user 2 whose minimum fell in
	// the deleted prefix (≈ 1/4 of bins) is emptied and never refills,
	// capping the estimate well below 1.
	const k = 128
	sum := 0.0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		s := similarity.NewOPH(k, uint64(trial))
		for i := 100; i < 400; i++ {
			s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
		}
		for i := 0; i < 400; i++ {
			s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Insert})
		}
		for i := 0; i < 100; i++ {
			s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Delete})
		}
		sum += s.EstimateJaccard(1, 2)
	}
	avg := sum / trials
	if avg > 0.9 {
		t.Errorf("expected visible deletion bias on identical sets (J=1), estimate %.3f"+
			" (baseline no longer reproduces the paper's flaw)", avg)
	}
}

func TestOPHDensifiedAccuracySparse(t *testing.T) {
	// Sparse regime (size < k) is where densification matters.
	const (
		trials = 30
		k      = 256
		size   = 60
	)
	schemes := map[string]func(*similarity.OPH, stream.User) *similarity.Densified{
		"rotation": (*similarity.OPH).DensifyRotation,
		"improved": (*similarity.OPH).DensifyImproved,
		"optimal":  (*similarity.OPH).DensifyOptimal,
	}
	for name, densify := range schemes {
		for _, wantJ := range []float64{0.3, 0.7} {
			common := gen.PlantedJaccard(size, wantJ)
			trueJ := float64(common) / float64(2*size-common)
			sum := 0.0
			for trial := 0; trial < trials; trial++ {
				s := similarity.NewOPH(k, uint64(trial))
				process(s, gen.PlantedPair(1, 2, size, size, common, int64(trial)))
				da := densify(s, 1)
				db := densify(s, 2)
				sum += da.EstimateJaccard(db)
			}
			avg := sum / trials
			if math.Abs(avg-trueJ) > 0.06 {
				t.Errorf("%s J=%.2f: mean estimate %.3f", name, trueJ, avg)
			}
		}
	}
}

func TestOPHDensifyIdenticalSetsPerfect(t *testing.T) {
	// Identical sets must densify to identical signatures (J = 1) under
	// every scheme — the shared-donor property.
	items := []stream.Item{10, 20, 30}
	s := similarity.NewOPH(64, 9)
	for _, it := range items {
		s.Process(stream.Edge{User: 1, Item: it, Op: stream.Insert})
		s.Process(stream.Edge{User: 2, Item: it, Op: stream.Insert})
	}
	for name, densify := range map[string]func(*similarity.OPH, stream.User) *similarity.Densified{
		"rotation": (*similarity.OPH).DensifyRotation,
		"improved": (*similarity.OPH).DensifyImproved,
		"optimal":  (*similarity.OPH).DensifyOptimal,
	} {
		if got := densify(s, 1).EstimateJaccard(densify(s, 2)); got != 1 {
			t.Errorf("%s: identical sets densified to Ĵ = %v", name, got)
		}
	}
}

func TestOPHDensifyPanics(t *testing.T) {
	s := similarity.NewOPH(16, 1)
	s.Process(stream.Edge{User: 1, Item: 5, Op: stream.Insert})
	for name, fn := range map[string]func(){
		"all empty": func() { s.DensifyRotation(99) },
		"mismatched k": func() {
			other := similarity.NewOPH(8, 1)
			other.Process(stream.Edge{User: 1, Item: 5, Op: stream.Insert})
			s.DensifyRotation(1).EstimateJaccard(other.DensifyRotation(1))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRPNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 should panic")
		}
	}()
	similarity.NewRP(0, 1)
}

func TestRPEstimateUnknownUsers(t *testing.T) {
	s := similarity.NewRP(4, 1)
	if s.EstimateCommonItems(5, 6) != 0 || s.EstimateJaccard(5, 6) != 0 {
		t.Error("unknown users should estimate 0")
	}
}

func TestRPCardinalityTracking(t *testing.T) {
	s := similarity.NewRP(4, 1)
	s.Process(stream.Edge{User: 1, Item: 10, Op: stream.Insert})
	s.Process(stream.Edge{User: 1, Item: 11, Op: stream.Insert})
	s.Process(stream.Edge{User: 1, Item: 10, Op: stream.Delete})
	if s.Cardinality(1) != 1 {
		t.Errorf("n = %d", s.Cardinality(1))
	}
	if s.Cardinality(9) != 0 {
		t.Error("unknown user cardinality")
	}
}

func TestRPSamplerHoldsAnItem(t *testing.T) {
	s := similarity.NewRP(8, 2)
	for i := 0; i < 20; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
	}
	for j := 0; j < 8; j++ {
		it, ok := s.Sample(1, j)
		if !ok {
			t.Fatalf("sampler %d empty after 20 inserts", j)
		}
		if it >= 20 {
			t.Fatalf("sampler %d holds foreign item %d", j, it)
		}
	}
}

func TestRPUniformityInsertOnly(t *testing.T) {
	// Chi-square of the sampled item over many independent samplers.
	const n = 8
	const k = 4000
	s := similarity.NewRP(k, 3)
	for i := 0; i < n; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
	}
	var counts [n]int
	for j := 0; j < k; j++ {
		it, ok := s.Sample(1, j)
		if !ok {
			t.Fatalf("sampler %d empty", j)
		}
		counts[it]++
	}
	checkChiSquare(t, counts[:], k)
}

func TestRPUniformityAfterDeletions(t *testing.T) {
	// The property MinHash/OPH lack: insert [0, 16), delete the even
	// items; samples must be uniform over the surviving odd items.
	const k = 4000
	s := similarity.NewRP(k, 5)
	for i := 0; i < 16; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
	}
	for i := 0; i < 16; i += 2 {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Delete})
	}
	counts := make([]int, 8)
	filled := 0
	for j := 0; j < k; j++ {
		it, ok := s.Sample(1, j)
		if !ok {
			continue
		}
		filled++
		if it%2 == 0 {
			t.Fatalf("sampler %d holds deleted item %d", j, it)
		}
		counts[it/2]++
	}
	// A sampler whose item was deleted stays empty until a compensating
	// insertion arrives (RP semantics), so ~half the samplers survive:
	// P(sample among the 8 deleted of 16) = 1/2.
	if filled < 4*k/10 || filled > 6*k/10 {
		t.Fatalf("%d/%d samplers filled, want ~half", filled, k)
	}
	checkChiSquare(t, counts, filled)
}

func TestRPUniformityAfterDeleteThenReinsert(t *testing.T) {
	// Delete everything, reinsert a fresh set: samples must be uniform
	// over the new set and never reference the old one.
	const k = 3000
	s := similarity.NewRP(k, 7)
	for i := 0; i < 10; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
	}
	for i := 0; i < 10; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Delete})
	}
	if s.Cardinality(1) != 0 {
		t.Fatalf("n = %d after full deletion", s.Cardinality(1))
	}
	for i := 100; i < 104; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
	}
	counts := make([]int, 4)
	filled := 0
	for j := 0; j < k; j++ {
		it, ok := s.Sample(1, j)
		if !ok {
			continue
		}
		filled++
		if it < 100 || it > 103 {
			t.Fatalf("stale item %d sampled", it)
		}
		counts[it-100]++
	}
	if filled == 0 {
		t.Fatal("no sampler refilled")
	}
	checkChiSquare(t, counts, filled)
}

func TestRPEstimateCommonItems(t *testing.T) {
	// With k samplers, E[matches] = k·s/(n_u·n_v). Use a large k so the
	// estimate concentrates.
	const (
		k      = 20000
		n      = 40
		common = 20
	)
	s := similarity.NewRP(k, 11)
	// User 1: items [0, 40). User 2: items [20, 60). Common: [20, 40).
	for i := 0; i < n; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
		s.Process(stream.Edge{User: 2, Item: stream.Item(i + common), Op: stream.Insert})
	}
	est := s.EstimateCommonItems(1, 2)
	// E[matches] = k·20/1600 = 250; σ ≈ √250 ≈ 16 ⇒ ŝ σ ≈ 1.3.
	if math.Abs(est-common) > 5 {
		t.Errorf("ŝ = %.1f, want ~%d", est, common)
	}
	trueJ := float64(common) / float64(2*n-common)
	if got := s.EstimateJaccard(1, 2); math.Abs(got-trueJ) > 0.12 {
		t.Errorf("Ĵ = %.3f, want ~%.3f", got, trueJ)
	}
}

func TestRPEstimateUnbiasedAfterDeletions(t *testing.T) {
	// The headline property: the estimator stays centred after heavy
	// deletions. Same final sets as TestEstimateCommonItems but built
	// with churn.
	const (
		k      = 20000
		common = 20
	)
	s := similarity.NewRP(k, 13)
	// Both users first subscribe [1000, 1100) then fully unsubscribe it.
	for i := 1000; i < 1100; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
		s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Insert})
	}
	for i := 1000; i < 1100; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Delete})
		s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Delete})
	}
	for i := 0; i < 40; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
		s.Process(stream.Edge{User: 2, Item: stream.Item(i + common), Op: stream.Insert})
	}
	est := s.EstimateCommonItems(1, 2)
	// Residual deletion debt leaves ~40% of samplers filled per user,
	// so ~16% of pairs contribute; σ(ŝ) ≈ 3.5 at this k.
	if math.Abs(est-common) > 10 {
		t.Errorf("ŝ = %.1f after churn, want ~%d (uniformity broken)", est, common)
	}
}

func TestRPJaccardClamped(t *testing.T) {
	// Tiny k: a single collision makes raw ŝ = n_u·n_v/k ≫ n; Jaccard
	// must stay in [0, 1].
	s := similarity.NewRP(1, 17)
	for i := 0; i < 50; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
		s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Insert})
	}
	j := s.EstimateJaccard(1, 2)
	if j < 0 || j > 1 {
		t.Errorf("Ĵ = %v out of [0, 1]", j)
	}
}

func TestRPDeterministic(t *testing.T) {
	build := func() *similarity.RP {
		s := similarity.NewRP(32, 9)
		for i := 0; i < 100; i++ {
			s.Process(stream.Edge{User: stream.User(i % 3), Item: stream.Item(i), Op: stream.Insert})
		}
		for i := 0; i < 50; i += 5 {
			s.Process(stream.Edge{User: stream.User(i % 3), Item: stream.Item(i), Op: stream.Delete})
		}
		return s
	}
	a, b := build(), build()
	for u := stream.User(0); u < 3; u++ {
		for j := 0; j < 32; j++ {
			ia, oka := a.Sample(u, j)
			ib, okb := b.Sample(u, j)
			if ia != ib || oka != okb {
				t.Fatalf("user %d sampler %d diverged", u, j)
			}
		}
	}
}

// checkChiSquare verifies counts are consistent with a uniform draw of
// total samples over len(counts) categories at a very loose significance
// level (guarding against gross non-uniformity, not statistical noise).
func checkChiSquare(t *testing.T, counts []int, total int) {
	t.Helper()
	expected := float64(total) / float64(len(counts))
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 99.99th percentile of chi-square with df ≤ 15 is < 45.
	if chi2 > 45 {
		t.Errorf("chi-square %.1f over %d categories (counts %v)", chi2, len(counts), counts)
	}
}
