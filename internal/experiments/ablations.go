package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/exact"
	"github.com/vossketch/vos/internal/gen"
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

// vosRow runs the dataset through one VOS configuration and appends its
// row: the label, the swept size in bits, β, and the final AAPE (ŝ) and
// ARMSE (Ĵ) over the tracked pairs.
func vosRow(t *Table, ds Dataset, pairs []exact.Pair, cfg core.Config, label string, bits uint64) error {
	v, err := core.New(cfg)
	if err != nil {
		return err
	}
	c, err := measureFinal(ds.Edges, []similarity.Estimator{similarity.FromVOS(v)}, pairs)
	if err != nil {
		return err
	}
	t.AddRow(
		label,
		fmt.Sprintf("%d", bits),
		fmt.Sprintf("%.4f", v.Beta()),
		fmt.Sprintf("%.4f", AAPE(c.TruthS, c.EstS[0])),
		fmt.Sprintf("%.4f", ARMSE(c.TruthJ, c.EstJ[0])),
	)
	return nil
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
		if err := vosRow(t, ds, pairs, cfg, fmt.Sprintf("%d", lambda), uint64(cfg.SketchBits)); err != nil {
			return nil, err
		}
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
		if err := vosRow(t, ds, pairs, cfg, fmt.Sprintf("1/%d", div), mem); err != nil {
			return nil, err
		}
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
			s := similarity.NewOPH(k, uint64(opts.Seed)+uint64(trial))
			for _, e := range gen.PlantedPair(1, 2, size, size, common, opts.Seed+int64(trial)) {
				s.Process(e)
			}
			errSparse += math.Abs(s.EstimateJaccard(1, 2) - trueJ)
			errRot += math.Abs(s.DensifyRotation(1).EstimateJaccard(s.DensifyRotation(2)) - trueJ)
			errImp += math.Abs(s.DensifyImproved(1).EstimateJaccard(s.DensifyImproved(2)) - trueJ)
			errOpt += math.Abs(s.DensifyOptimal(1).EstimateJaccard(s.DensifyOptimal(2)) - trueJ)
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
		pairs, _, err := TrackedPairs(Dataset{Edges: edges}, opts)
		if err != nil {
			return nil, fmt.Errorf("%w (deleted fraction %.1f)", err, churn)
		}
		ests, err := similarity.NewAll(opts.budget(scaled), uint64(opts.Seed))
		if err != nil {
			return nil, err
		}
		c, err := measureFinal(edges, ests, pairs)
		if err != nil {
			return nil, err
		}
		for m, est := range ests {
			t.AddRow(
				fmt.Sprintf("%.1f", churn),
				est.Name(),
				fmt.Sprintf("%+.2f", MeanBias(c.TruthS, c.EstS[m])),
				fmt.Sprintf("%.4f", AAPE(c.TruthS, c.EstS[m])),
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
