package experiments

import (
	"fmt"
	"time"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/similarity"
	"github.com/vossketch/vos/internal/stream"
)

// Figure 2 measures sketch update runtime: panel (a) sweeps the register
// count k on the YouTube workload, panel (b) fixes the largest k and runs
// every dataset. The paper's claim under test is the complexity class —
// VOS and OPH update in O(1) per element while MinHash and RP pay O(k) —
// so the deliverable is the growth shape and the method ordering, not the
// absolute seconds of the authors' testbed.
//
// Two laptop adaptations, both documented in README.md:
//
//   - The runtime workload fixes the user count (Options.RuntimeUsers) and
//     stream length (RuntimeEdges) per profile shape, because a per-user
//     O(k)-register layout at k = 10⁵ over the full scaled user set would
//     need tens of GB. Update cost per element does not depend on the user
//     count, so the measurement is unaffected.
//   - VOS's shared array is capped at fig2MaxMemoryBits for the same
//     reason; VOS update cost is independent of m (one hash, one flip).

const fig2MaxMemoryBits = uint64(1) << 28 // 32 MiB array cap for the sweep

// runtimeWorkload generates the Figure 2 stream for a profile: the
// profile's shape (skews, average degree) at a fixed user count and
// element budget.
func runtimeWorkload(p gen.Profile, opts Options) []stream.Edge {
	opts = opts.normalized()
	rp := p
	rp.Users = opts.RuntimeUsers
	rp.Items = opts.RuntimeUsers * 4
	rp.Edges = opts.RuntimeEdges
	if rp.Edges > rp.Users*rp.Items {
		rp.Edges = rp.Users * rp.Items
	}
	base := gen.Bipartite(rp, opts.Seed)
	cfg := gen.PaperDynamize(len(base), opts.Seed+1)
	return gen.Dynamize(base, cfg)
}

// buildForRuntime constructs one method at register count k for the
// runtime workload. The budget provisions for no more users than keep VOS's
// shared array under the cap described above; the baselines' layout is per
// user and does not read it.
func buildForRuntime(method string, k int, users uint64, seed uint64) (similarity.Estimator, error) {
	users = min(users, fig2MaxMemoryBits/(32*uint64(k)))
	return similarity.New(method, similarity.Budget{K32: k, Users: int(users), Lambda: 2}, seed)
}

// timeUpdates is how Figure 2 times a method: the whole stream through
// Process, by the wall clock. It is a variable so that the golden test can
// pin the tables' labels and notes without paying for the O(k) loops behind
// their timing cells.
var timeUpdates = func(est similarity.Estimator, edges []stream.Edge) time.Duration {
	start := time.Now()
	for _, e := range edges {
		est.Process(e)
	}
	return time.Since(start)
}

// runtimeRows times every method at register count k over edges and appends
// one row a method under label.
func runtimeRows(t *Table, label string, k int, opts Options, edges []stream.Edge) error {
	for _, method := range similarity.Methods {
		est, err := buildForRuntime(method, k, opts.RuntimeUsers, uint64(opts.Seed))
		if err != nil {
			return err
		}
		d := timeUpdates(est, edges)
		t.AddRow(
			label,
			method,
			fmt.Sprintf("%.4f", d.Seconds()),
			fmt.Sprintf("%.1f", float64(d.Nanoseconds())/float64(len(edges))),
		)
	}
	return nil
}

// Fig2a regenerates Figure 2(a): update runtime on the YouTube workload
// as k sweeps over Options.RuntimeKs, for all four methods.
func Fig2a(opts Options) (*Table, error) {
	opts = opts.normalized()
	edges := runtimeWorkload(opts.profile(), opts)

	t := &Table{
		ID:     "fig2a",
		Title:  fmt.Sprintf("Runtime vs sketch size k (%s workload)", opts.Dataset),
		Header: []string{"k", "method", "seconds", "ns/edge"},
	}
	t.AddNote("workload: %s shape, %d users, %d elements, seed %d",
		opts.Dataset, opts.RuntimeUsers, len(edges), opts.Seed)
	t.AddNote("expected shape: VOS and OPH flat in k (O(1)); MinHash and RP linear in k (O(k))")

	for _, k := range opts.RuntimeKs {
		if err := runtimeRows(t, fmt.Sprintf("%d", k), k, opts, edges); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig2b regenerates Figure 2(b): update runtime at the largest swept k on
// all four dataset workloads.
func Fig2b(opts Options) (*Table, error) {
	opts = opts.normalized()
	k := opts.RuntimeKs[len(opts.RuntimeKs)-1]

	t := &Table{
		ID:     "fig2b",
		Title:  fmt.Sprintf("Runtime at k = %d on all datasets", k),
		Header: []string{"dataset", "method", "seconds", "ns/edge"},
	}
	t.AddNote("workload: each profile's shape, %d users, %d elements, seed %d",
		opts.RuntimeUsers, opts.RuntimeEdges, opts.Seed)

	for _, p := range gen.Profiles {
		if err := runtimeRows(t, p.Name, k, opts, runtimeWorkload(p, opts)); err != nil {
			return nil, err
		}
	}
	return t, nil
}
