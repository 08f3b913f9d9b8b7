package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/vossketch/vos/internal/exact"
	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/similarity"
	"github.com/vossketch/vos/internal/stream"
)

// Options hold the tunable knobs shared by the experiment runners. Zero
// value means "use Defaults()".
type Options struct {
	// Scale shrinks the paper-scale dataset profiles for laptop runs
	// (see README.md). 0.01 reproduces the relative shapes at ~1% of
	// the node counts.
	Scale float64
	// Seed drives workload generation; every run with the same Options
	// is bit-identical.
	Seed int64
	// K32 is the register count per user for the baselines (paper: 100).
	K32 int
	// Lambda is the VOS multiplier (paper: 2).
	Lambda int
	// TopUsers is how many highest-cardinality users seed the tracked
	// pairs (paper: 5,000 at full scale; scaled default 100).
	TopUsers int
	// MaxPairs caps the tracked pair count to bound harness cost.
	MaxPairs int
	// Checkpoints is the number of evenly spaced measurement points for
	// the over-time panels.
	Checkpoints int
	// Dataset selects the profile for the single-dataset experiments
	// (fig3a/fig3c time series and the ablations). Default "YouTube",
	// matching the paper's Figure 2(a)/3(a)/3(c).
	Dataset string
	// RuntimeUsers and RuntimeEdges shape the dedicated runtime
	// workload of Figure 2 (see Fig2 docs).
	RuntimeUsers uint64
	RuntimeEdges uint64
	// RuntimeKs is the k sweep of Figure 2(a) and the single k of 2(b)
	// (its last element).
	RuntimeKs []int
}

// minCommon is the common-item threshold for tracked pairs (paper: 1).
const minCommon = 1

// Defaults returns the laptop-scale configuration used throughout
// README.md.
func Defaults() Options {
	return Options{
		Scale:        0.01,
		Seed:         2,
		K32:          100,
		Lambda:       2,
		TopUsers:     100,
		MaxPairs:     500,
		Checkpoints:  12,
		Dataset:      "YouTube",
		RuntimeUsers: 1000,
		RuntimeEdges: 100_000,
		RuntimeKs:    []int{1, 10, 100, 1000, 10_000},
	}
}

// normalized fills zero fields from Defaults.
func (o Options) normalized() Options {
	d := Defaults()
	o.Scale = cmp.Or(o.Scale, d.Scale)
	o.Seed = cmp.Or(o.Seed, d.Seed)
	o.K32 = cmp.Or(o.K32, d.K32)
	o.Lambda = cmp.Or(o.Lambda, d.Lambda)
	o.TopUsers = cmp.Or(o.TopUsers, d.TopUsers)
	o.MaxPairs = cmp.Or(o.MaxPairs, d.MaxPairs)
	o.Checkpoints = cmp.Or(o.Checkpoints, d.Checkpoints)
	o.Dataset = cmp.Or(o.Dataset, d.Dataset)
	o.RuntimeUsers = cmp.Or(o.RuntimeUsers, d.RuntimeUsers)
	o.RuntimeEdges = cmp.Or(o.RuntimeEdges, d.RuntimeEdges)
	if len(o.RuntimeKs) == 0 {
		o.RuntimeKs = d.RuntimeKs
	}
	return o
}

// budget is the §V memory model for a profile under the options: every
// method gets 32·K32 bits for each of the profile's users.
func (o Options) budget(p gen.Profile) similarity.Budget {
	return similarity.Budget{K32: o.K32, Users: int(p.Users), Lambda: o.Lambda}
}

// Dataset is a fully dynamic workload ready for the runners.
type Dataset struct {
	// Profile is the scaled profile the stream was generated from.
	Profile gen.Profile
	// Edges is the dynamized stream (§V model: mass deletions with
	// d = 0.5, event rate scaled per gen.PaperDynamize).
	Edges []stream.Edge
	// Deletes counts deletion elements, for reporting.
	Deletes int
}

// BuildDataset generates the dynamized stream for a profile under the
// options' scale and seed.
func BuildDataset(p gen.Profile, opts Options) Dataset {
	opts = opts.normalized()
	scaled := p.Scaled(opts.Scale)
	base := gen.Bipartite(scaled, opts.Seed)
	cfg := gen.PaperDynamize(len(base), opts.Seed+1)
	edges := gen.Dynamize(base, cfg)
	deletes := 0
	for _, e := range edges {
		if e.Op == stream.Delete {
			deletes++
		}
	}
	return Dataset{Profile: scaled, Edges: edges, Deletes: deletes}
}

// TrackedPairs selects the pairs the accuracy experiments follow, using
// the paper's rule: among the TopUsers highest-cardinality users at end of
// stream, every pair sharing at least minCommon items, capped at MaxPairs.
// It also reports the median true common-item count of the selection, for
// the table notes.
func TrackedPairs(ds Dataset, opts Options) ([]exact.Pair, int, error) {
	opts = opts.normalized()
	store := exact.NewStore()
	for _, e := range ds.Edges {
		if err := store.Apply(e); err != nil {
			return nil, 0, fmt.Errorf("experiments: workload infeasible: %w", err)
		}
	}
	top := store.TopUsers(opts.TopUsers)
	pairs := store.PairsWithCommonItems(top, minCommon, opts.MaxPairs)
	if len(pairs) == 0 {
		return nil, 0, fmt.Errorf("experiments: no pair among top %d users shares ≥ %d items",
			opts.TopUsers, minCommon)
	}
	commons := make([]int, len(pairs))
	for i, p := range pairs {
		commons[i] = store.CommonItems(p.U, p.V)
	}
	return pairs, medianInt(commons), nil
}

func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Sorted(slices.Values(xs))
	return sorted[len(sorted)/2]
}

// profile resolves the options' Dataset name, panicking on unknown names
// (the CLI validates user input before reaching here).
func (o Options) profile() gen.Profile {
	p, err := gen.ProfileByName(o.Dataset)
	if err != nil {
		panic(err)
	}
	return p
}
