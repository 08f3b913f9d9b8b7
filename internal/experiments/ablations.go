package experiments

import (
	"fmt"
	"math/rand"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/exact"
	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/metrics"
	"github.com/vossketch/vos/internal/oph"
	"github.com/vossketch/vos/internal/similarity"
	"github.com/vossketch/vos/internal/stream"
)

// Ablations probe the reproduction's design choices (see README.md), beyond what the
// paper plots:
//
//   - abl-lambda: sensitivity of VOS to the virtual-sketch multiplier λ at
//     fixed memory (the paper fixes λ = 2 with one sentence of
//     justification).
//   - abl-load: accuracy as the shared array fills up (β sweep) — the
//     contamination-correction stress test.
//   - abl-dense: the three OPH densification schemes on static sparse
//     sets, where densification is supposed to matter.
//   - abl-delbias: estimator bias as a function of deletion pressure, the
//     mechanism behind Figure 3's gaps.

// vosVariantRun processes the dataset through one VOS configuration and
// returns final AAPE (ŝ), ARMSE (Ĵ) and β over the tracked pairs.
func vosVariantRun(ds Dataset, pairs []exact.Pair, cfg core.Config) (aape, armse, beta float64, err error) {
	v, err := core.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	tracker, err := exact.NewPairTracker(pairs)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, e := range ds.Edges {
		v.Process(e)
		tracker.MustApply(e)
	}
	truthS := make([]float64, len(pairs))
	truthJ := make([]float64, len(pairs))
	estS := make([]float64, len(pairs))
	estJ := make([]float64, len(pairs))
	for i, p := range pairs {
		truthS[i] = float64(tracker.CommonItems(i))
		truthJ[i] = tracker.Jaccard(i)
		q := v.Query(p.U, p.V)
		estS[i] = q.Common
		estJ[i] = q.Jaccard
	}
	return metrics.AAPE(truthS, estS), metrics.ARMSE(truthJ, estJ), v.Beta(), nil
}

// AblLambda regenerates the λ-sensitivity table on the YouTube workload.
func AblLambda(opts Options) (*Table, error) {
	opts = opts.normalized()
	ds := BuildDataset(opts.profile(), opts)
	pairs, median, err := TrackedPairs(ds, opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "abl-lambda",
		Title:  "VOS accuracy vs virtual-sketch multiplier λ (fixed memory)",
		Header: []string{"lambda", "k_vos(bits)", "beta", "AAPE", "ARMSE"},
	}
	t.AddNote("dataset %s: %d elements, %d tracked pairs (median s = %d), m = 32·%d·|U| bits",
		ds.Profile.Name, len(ds.Edges), len(pairs), median, opts.K32)

	mem := 32 * uint64(opts.K32) * ds.Profile.Users
	for _, lambda := range []int{1, 2, 4, 8, 16} {
		cfg := core.Config{
			MemoryBits: mem,
			SketchBits: lambda * 32 * opts.K32,
			Seed:       uint64(opts.Seed),
		}
		aape, armse, beta, err := vosVariantRun(ds, pairs, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", lambda),
			fmt.Sprintf("%d", cfg.SketchBits),
			fmt.Sprintf("%.4f", beta),
			fmt.Sprintf("%.4f", aape),
			fmt.Sprintf("%.4f", armse),
		)
	}
	return t, nil
}

// AblLoad regenerates the array-load sweep: the same workload through
// shrinking shared arrays, pushing β up.
func AblLoad(opts Options) (*Table, error) {
	opts = opts.normalized()
	ds := BuildDataset(opts.profile(), opts)
	pairs, median, err := TrackedPairs(ds, opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "abl-load",
		Title:  "VOS accuracy vs shared-array load β (memory sweep)",
		Header: []string{"mem_fraction", "m(bits)", "beta", "AAPE", "ARMSE"},
	}
	t.AddNote("dataset %s: %d elements, %d tracked pairs (median s = %d); λ = %d, k32 = %d",
		ds.Profile.Name, len(ds.Edges), len(pairs), median, opts.Lambda, opts.K32)

	full := 32 * uint64(opts.K32) * ds.Profile.Users
	kv := opts.Lambda * 32 * opts.K32
	for _, div := range []uint64{256, 64, 16, 4, 1} {
		mem := full / div
		if mem < uint64(kv) {
			mem = uint64(kv)
		}
		cfg := core.Config{MemoryBits: mem, SketchBits: kv, Seed: uint64(opts.Seed)}
		aape, armse, beta, err := vosVariantRun(ds, pairs, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("1/%d", div),
			fmt.Sprintf("%d", mem),
			fmt.Sprintf("%.4f", beta),
			fmt.Sprintf("%.4f", aape),
			fmt.Sprintf("%.4f", armse),
		)
	}
	return t, nil
}

// AblDense compares the sparse NIPS'12 OPH estimator against the three
// densification schemes on static sparse sets across a Jaccard range.
func AblDense(opts Options) (*Table, error) {
	opts = opts.normalized()
	const (
		k      = 256
		size   = 60 // sparse: size < k leaves most bins empty
		trials = 40
	)
	t := &Table{
		ID:     "abl-dense",
		Title:  "OPH densification variants on static sparse sets",
		Header: []string{"true_J", "sparse", "rotation", "improved", "optimal"},
	}
	t.AddNote("planted pairs, |S| = %d, k = %d bins, %d trials per cell; cells are mean |Ĵ − J|",
		size, k, trials)

	for _, wantJ := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		common := gen.PlantedJaccard(size, wantJ)
		trueJ := float64(common) / float64(2*size-common)
		var errSparse, errRot, errImp, errOpt float64
		for trial := 0; trial < trials; trial++ {
			s := oph.New(k, uint64(opts.Seed)+uint64(trial))
			for _, e := range gen.PlantedPair(1, 2, size, size, common, opts.Seed+int64(trial)) {
				s.Process(e)
			}
			errSparse += absf(s.EstimateJaccard(1, 2) - trueJ)
			errRot += absf(s.DensifyRotation(1).EstimateJaccard(s.DensifyRotation(2)) - trueJ)
			errImp += absf(s.DensifyImproved(1).EstimateJaccard(s.DensifyImproved(2)) - trueJ)
			errOpt += absf(s.DensifyOptimal(1).EstimateJaccard(s.DensifyOptimal(2)) - trueJ)
		}
		t.AddRow(
			fmt.Sprintf("%.2f", trueJ),
			fmt.Sprintf("%.4f", errSparse/trials),
			fmt.Sprintf("%.4f", errRot/trials),
			fmt.Sprintf("%.4f", errImp/trials),
			fmt.Sprintf("%.4f", errOpt/trials),
		)
	}
	return t, nil
}

// AblDelBias regenerates the deletion-pressure bias table: mean signed
// error of ŝ for every method as the deleted fraction grows.
//
// The deletions are *uncompensated*: a single mass-deletion event removes
// a fraction of all edges at the end of the stream and nothing is
// re-subscribed afterwards. This isolates the §III sampling bias — a
// MinHash/OPH register emptied by the deletion of its minimum has no later
// insertion to refill from. (A churn model that re-inserts every deleted
// edge provably restores MinHash registers by end of stream — the deleted
// minimum itself comes back and retakes its register — so it cannot
// exhibit the bias at final time, which is why this ablation uses the
// mass-deletion form.)
func AblDelBias(opts Options) (*Table, error) {
	opts = opts.normalized()
	scaled := opts.profile().Scaled(opts.Scale / 2)
	base := gen.Bipartite(scaled, opts.Seed)

	t := &Table{
		ID:     "abl-delbias",
		Title:  "Mean signed error of ŝ vs deleted fraction (uncompensated mass deletion)",
		Header: []string{"deleted", "method", "mean_bias", "AAPE"},
	}
	t.AddNote("dataset %s shape, %d base edges; one terminal mass deletion removes the given fraction",
		scaled.Name, len(base))
	t.AddNote("expected shape: MinHash/OPH bias grows with the deleted fraction; VOS and RP stay centred")

	for _, churn := range []float64{0, 0.2, 0.5, 0.8} {
		edges := withTerminalDeletion(base, churn, opts.Seed+11)
		store := exact.NewStore()
		for _, e := range edges {
			store.MustApply(e)
		}
		top := store.TopUsers(opts.TopUsers)
		pairs := store.PairsWithCommonItems(top, opts.MinCommon, opts.MaxPairs)
		if len(pairs) == 0 {
			return nil, fmt.Errorf("experiments: no tracked pairs at deleted fraction %.1f", churn)
		}
		budget := similarity.Budget{K32: opts.K32, Users: int(scaled.Users), Lambda: opts.Lambda}
		ests, err := similarity.NewAll(budget, uint64(opts.Seed))
		if err != nil {
			return nil, err
		}
		for _, e := range edges {
			for _, est := range ests {
				est.Process(e)
			}
		}
		truthS := make([]float64, len(pairs))
		estS := make([]float64, len(pairs))
		for _, est := range ests {
			for i, p := range pairs {
				truthS[i] = float64(store.CommonItems(p.U, p.V))
				estS[i] = est.EstimateCommonItems(p.U, p.V)
			}
			t.AddRow(
				fmt.Sprintf("%.1f", churn),
				est.Name(),
				fmt.Sprintf("%+.2f", metrics.MeanBias(truthS, estS)),
				fmt.Sprintf("%.4f", metrics.AAPE(truthS, estS)),
			)
		}
	}
	return t, nil
}

// withTerminalDeletion appends one mass-deletion burst removing each edge
// independently with probability frac, in deterministic seeded order.
func withTerminalDeletion(base []stream.Edge, frac float64, seed int64) []stream.Edge {
	rng := rand.New(rand.NewSource(seed))
	out := append([]stream.Edge(nil), base...)
	for _, e := range base {
		if rng.Float64() < frac {
			out = append(out, stream.Edge{User: e.User, Item: e.Item, Op: stream.Delete})
		}
	}
	return out
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Exact-oracle assisted deep-dive used by tests and the inspector: run a
// dataset and return side-by-side per-pair numbers for one method.
type PairReport struct {
	Pair      exact.Pair
	TrueS     int
	EstS      float64
	TrueJ     float64
	EstJ      float64
	TrueCardU int
	TrueCardV int
}

// ComparePairs runs the dataset through one method and reports per-pair
// truth vs estimate at end of stream.
func ComparePairs(ds Dataset, pairs []exact.Pair, method string, opts Options) ([]PairReport, error) {
	opts = opts.normalized()
	budget := similarity.Budget{K32: opts.K32, Users: int(ds.Profile.Users), Lambda: opts.Lambda}
	est, err := similarity.New(method, budget, uint64(opts.Seed))
	if err != nil {
		return nil, err
	}
	store := exact.NewStore()
	for _, e := range ds.Edges {
		est.Process(e)
		if err := store.Apply(e); err != nil {
			return nil, err
		}
	}
	out := make([]PairReport, len(pairs))
	for i, p := range pairs {
		out[i] = PairReport{
			Pair:      p,
			TrueS:     store.CommonItems(p.U, p.V),
			EstS:      est.EstimateCommonItems(p.U, p.V),
			TrueJ:     store.Jaccard(p.U, p.V),
			EstJ:      est.EstimateJaccard(p.U, p.V),
			TrueCardU: store.Cardinality(p.U),
			TrueCardV: store.Cardinality(p.V),
		}
	}
	return out, nil
}
