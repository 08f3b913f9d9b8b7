// Package similarity holds everything the paper's evaluation compares VOS
// with, behind one interface: the Estimator every method implements, the §V
// memory-equalisation model, the three baselines — MinHash and OPH on one
// register table (registers.go, densify.go), Random Pairing (rp.go) — the
// adapters that put the VOS sketch and the exact oracle behind the same
// interface, and the factory that builds any of them under the same memory
// budget, exactly as the evaluation requires.
package similarity

import (
	"fmt"
	"sort"
	"strings"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/exact"
	"github.com/vossketch/vos/internal/stream"
)

// Estimator is a streaming user-similarity estimator: it consumes stream
// elements one at a time and answers pairwise queries at any point.
type Estimator interface {
	// Name identifies the method ("VOS", "MinHash", "OPH", "RP", "Exact").
	Name() string
	// Process folds one stream element into the estimator's state.
	Process(e stream.Edge)
	// EstimateCommonItems returns ŝ_uv.
	EstimateCommonItems(u, v stream.User) float64
	// EstimateJaccard returns Ĵ(S_u, S_v) in [0, 1].
	EstimateJaccard(u, v stream.User) float64
	// Cardinality returns the tracked n_u.
	Cardinality(u stream.User) int64
}

// Budget is the §V memory model: every method gets m = 32·K32·Users bits
// in total, the cost of giving each of Users users K32 registers of 32
// bits (the baselines' layout). VOS spends the same bits on one shared
// array and virtualises per-user sketches of Lambda·32·K32 bits over it.
type Budget struct {
	// K32 is the register count per user for MinHash/OPH/RP (the paper's
	// k; 100 in the accuracy experiments).
	K32 int
	// Users is |U|, the number of users the budget provisions for.
	Users int
	// Lambda is the VOS virtual-sketch multiplier (the paper's λ; 2 in
	// §V): VOS's k = Lambda·32·K32.
	Lambda int
}

// TotalBits returns m = 32·K32·Users.
func (b Budget) TotalBits() uint64 {
	return 32 * uint64(b.K32) * uint64(b.Users)
}

// VOSSketchBits returns VOS's virtual sketch size k = Lambda·32·K32.
func (b Budget) VOSSketchBits() int {
	return b.Lambda * 32 * b.K32
}

func (b Budget) validate() error {
	if b.K32 <= 0 || b.Users <= 0 || b.Lambda <= 0 {
		return fmt.Errorf("similarity: budget fields must be positive: %+v", b)
	}
	return nil
}

// Method names accepted by New.
const (
	MethodVOS     = "VOS"
	MethodMinHash = "MinHash"
	MethodOPH     = "OPH"
	MethodRP      = "RP"
	MethodExact   = "Exact"
)

// Methods lists the four sketch methods in the paper's plotting order.
var Methods = []string{MethodMinHash, MethodOPH, MethodRP, MethodVOS}

// New builds an estimator of the given method under the budget.
func New(method string, b Budget, seed uint64) (Estimator, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	switch strings.ToLower(method) {
	case "vos":
		v, err := core.New(core.Config{
			MemoryBits: b.TotalBits(),
			SketchBits: b.VOSSketchBits(),
			Seed:       seed,
		})
		if err != nil {
			return nil, err
		}
		return FromVOS(v), nil
	case "minhash":
		return NewMinHash(b.K32, seed), nil
	case "oph":
		return NewOPH(b.K32, seed), nil
	case "rp":
		return NewRP(b.K32, seed), nil
	case "exact":
		return NewExact(), nil
	default:
		return nil, fmt.Errorf("similarity: unknown method %q (want one of %s, Exact)",
			method, strings.Join(Methods, ", "))
	}
}

// MustNew is New for static configurations; it panics on error.
func MustNew(method string, b Budget, seed uint64) Estimator {
	e, err := New(method, b, seed)
	if err != nil {
		panic(err)
	}
	return e
}

// NewAll builds one estimator per sketch method (no exact oracle), in the
// paper's plotting order, all under the same budget and seed.
func NewAll(b Budget, seed uint64) ([]Estimator, error) {
	out := make([]Estimator, 0, len(Methods))
	for _, m := range Methods {
		e, err := New(m, b, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// vosAdapter is a sketch behind the interface: the sketch's own Process,
// estimates and Cardinality, plus the name.
type vosAdapter struct{ *core.VOS }

func (vosAdapter) Name() string { return MethodVOS }

// FromVOS puts a sketch of any configuration behind the Estimator interface;
// New builds the one the §V budget prescribes.
func FromVOS(v *core.VOS) Estimator { return vosAdapter{v} }

// Exact is the ground-truth oracle behind the Estimator interface. Its
// "estimates" are exact values; it exists so harness code can treat truth
// and sketches uniformly and so examples can sanity-check sketch output.
type Exact struct{ store *exact.Store }

// NewExact creates an exact oracle.
func NewExact() *Exact { return &Exact{store: exact.NewStore()} }

// Name implements Estimator.
func (x *Exact) Name() string { return MethodExact }

// Process implements Estimator; infeasible elements panic, because the
// oracle's correctness contract is a feasible stream.
func (x *Exact) Process(e stream.Edge) { x.store.MustApply(e) }

// EstimateCommonItems returns the exact s_uv.
func (x *Exact) EstimateCommonItems(u, v stream.User) float64 {
	return float64(x.store.CommonItems(u, v))
}

// EstimateJaccard returns the exact J.
func (x *Exact) EstimateJaccard(u, v stream.User) float64 {
	return x.store.Jaccard(u, v)
}

// Cardinality returns the exact |S_u|.
func (x *Exact) Cardinality(u stream.User) int64 {
	return int64(x.store.Cardinality(u))
}

// TopSimilar returns, for an estimator and a candidate user set, the n
// users most similar to u by estimated Jaccard, descending (ties broken by
// user ID), u excluded. The building block of the "similar users" examples.
// The VOS adapter ranks through its sketch's native top-K — the probe user's
// packed sketch recovered once, a bounded min-heap instead of every score
// materialised — whose ranking equals the generic one below.
func TopSimilar(est Estimator, u stream.User, candidates []stream.User, n int) []stream.User {
	if v, ok := est.(vosAdapter); ok {
		top := v.TopK(u, candidates, n)
		out := make([]stream.User, len(top))
		for i, r := range top {
			out[i] = r.User
		}
		return out
	}
	type scored struct {
		user stream.User
		j    float64
	}
	xs := make([]scored, 0, len(candidates))
	for _, c := range candidates {
		if c == u {
			continue
		}
		xs = append(xs, scored{user: c, j: est.EstimateJaccard(u, c)})
	}
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].j != xs[j].j {
			return xs[i].j > xs[j].j
		}
		return xs[i].user < xs[j].user
	})
	if n > len(xs) {
		n = len(xs)
	}
	out := make([]stream.User, n)
	for i := 0; i < n; i++ {
		out[i] = xs[i].user
	}
	return out
}
