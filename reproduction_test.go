package vos_test

import (
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/experiments"
	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/stream"
)

// These tests pin the paper's two headline claims as executable
// regressions at a reduced (seeded, deterministic) scale: if a code change
// breaks either the accuracy ordering or the complexity separation, the
// suite fails. The full-scale versions live in cmd/vosbench and
// README.md ("Reproducing the paper").

// reproductionOptions is the seeded mid-scale configuration; large enough
// for the orderings to be stable, small enough for `go test`.
func reproductionOptions() experiments.Options {
	return experiments.Options{
		Scale:       0.005,
		Seed:        2,
		K32:         100,
		Lambda:      2,
		TopUsers:    80,
		MaxPairs:    300,
		Checkpoints: 6,
	}
}

func TestReproduction_AccuracyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction run skipped in -short mode")
	}
	r, err := experiments.RunAccuracy(gen.YouTube, reproductionOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Deletes == 0 {
		t.Fatal("workload has no deletions; the regression would be vacuous")
	}
	aape, armse := r.Final()
	t.Logf("final AAPE: %v", aape)
	t.Logf("final ARMSE: %v", armse)

	// Paper Figure 3: VOS most accurate, RP far worst.
	for _, baseline := range []string{"MinHash", "OPH", "RP"} {
		if aape["VOS"] >= aape[baseline] {
			t.Errorf("AAPE ordering broken: VOS %.4f !< %s %.4f",
				aape["VOS"], baseline, aape[baseline])
		}
		if armse["VOS"] >= armse[baseline] {
			t.Errorf("ARMSE ordering broken: VOS %.4f !< %s %.4f",
				armse["VOS"], baseline, armse[baseline])
		}
	}
	if aape["RP"] < 2*aape["MinHash"] {
		t.Errorf("RP should be far worse than MinHash on AAPE: %.4f vs %.4f",
			aape["RP"], aape["MinHash"])
	}
}

func TestReproduction_ComplexitySeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction run skipped in -short mode")
	}
	// Per-edge update cost at k = 1000: the O(k) methods must be at
	// least 10x the O(1) methods (the paper's Figure 2 gap at this k is
	// ~50x; 10x keeps the regression robust to machine noise).
	p := gen.YouTube
	p.Users, p.Items, p.Edges = 500, 2000, 30_000
	base := gen.Bipartite(p, 2)
	edges := gen.Dynamize(base, gen.PaperDynamize(len(base), 3))

	const k = 1000
	cost := map[string]time.Duration{}
	for _, method := range vos.Methods {
		est := vos.MustNewEstimator(method, vos.Budget{K32: k, Users: 500, Lambda: 2}, 1)
		start := time.Now()
		for _, e := range edges {
			est.Process(e)
		}
		cost[method] = time.Since(start)
	}
	t.Logf("update cost at k=%d over %d edges: %v", k, len(edges), cost)

	// VOS allocates nothing per user, so the full 10x bound applies. OPH
	// updates in O(1) but pays a one-time O(k) register-array allocation
	// per user; on this short stream (~84 updates/user) that setup cost
	// is only partially amortised, so its bound is looser (the asymptotic
	// gap is visible in Figure 2 where streams are longer).
	bounds := map[string]time.Duration{"VOS": 10, "OPH": 4}
	for fast, factor := range bounds {
		for _, slow := range []string{"MinHash", "RP"} {
			if cost[slow] < factor*cost[fast] {
				t.Errorf("complexity separation broken: %s (%v) not ≥ %dx %s (%v)",
					slow, cost[slow], factor, fast, cost[fast])
			}
		}
	}
}

func TestReproduction_DeletionBiasMechanism(t *testing.T) {
	// The §III mechanism itself, deterministic and scale-free: identical
	// final sets built with and without churn must agree for VOS and
	// must NOT for MinHash (whose registers empty out).
	cfg := vos.Config{MemoryBits: 1 << 18, SketchBits: 1024, Seed: 5}
	cleanVOS := vos.MustNew(cfg)
	churnVOS := vos.MustNew(cfg)
	b := vos.Budget{K32: 100, Users: 10, Lambda: 2}
	cleanMH := vos.MustNewEstimator(vos.MethodMinHash, b, 5)
	churnMH := vos.MustNewEstimator(vos.MethodMinHash, b, 5)

	feed := func(sks []interface{ Process(vos.Edge) }, e vos.Edge) {
		for _, sk := range sks {
			sk.Process(e)
		}
	}
	clean := []interface{ Process(vos.Edge) }{cleanVOS, cleanMH}
	churn := []interface{ Process(vos.Edge) }{churnVOS, churnMH}

	// Clean path: both users subscribe exactly [100, 400).
	for i := 100; i < 400; i++ {
		feed(clean, vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Insert})
		feed(clean, vos.Edge{User: 2, Item: vos.Item(i), Op: vos.Insert})
	}
	// Churn path: same final sets, but user 2 transits through [0, 100).
	for i := 0; i < 400; i++ {
		feed(churn, vos.Edge{User: 2, Item: vos.Item(i), Op: vos.Insert})
	}
	for i := 100; i < 400; i++ {
		feed(churn, vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Insert})
	}
	for i := 0; i < 100; i++ {
		feed(churn, vos.Edge{User: 2, Item: vos.Item(i), Op: vos.Delete})
	}

	vosClean := cleanVOS.Query(1, 2).Jaccard
	vosChurn := churnVOS.Query(1, 2).Jaccard
	if vosClean != vosChurn {
		t.Errorf("VOS is history-dependent: %.4f vs %.4f", vosClean, vosChurn)
	}
	mhClean := cleanMH.EstimateJaccard(1, 2)
	mhChurn := churnMH.EstimateJaccard(1, 2)
	if mhClean != 1 {
		t.Errorf("MinHash clean J = %.4f, want 1 (identical sets)", mhClean)
	}
	if mhChurn > 0.9 {
		t.Errorf("MinHash churn J = %.4f; deletion bias vanished", mhChurn)
	}
}

// Guard: the stream tooling the tests rely on stays feasible.
func TestReproduction_WorkloadFeasible(t *testing.T) {
	ds := experiments.BuildDataset(gen.YouTube, reproductionOptions())
	if err := stream.Validate(ds.Edges); err != nil {
		t.Fatal(err)
	}
}
