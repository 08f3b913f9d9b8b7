package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/lsh"
	"github.com/vossketch/vos/internal/stream"
)

// Approximate top-K: a maintained banded-LSH index over packed recovered
// sketches, so a top-K probe scores only the users colliding with the
// probe in at least one band instead of scanning every user the engine
// has ever seen (the ROADMAP's "sublinear top-K" item — Engine.TopK is
// O(users) per query however warm the caches are).
//
// The index is a lsh.BandIndex keyed on bit-bands of the packed sketches
// core.VOS.RecoverSketch produces from the merged snapshot. Maintenance is
// lazy and piggybacks on the same write-versioning the recovered-sketch
// cache uses: shard workers record which users they wrote (inside the same
// skMu critical section that advances the shard's processed stamp, so a
// post-Flush probe always observes the full dirty set), and each probe
// re-bands up to ANNConfig.RebandBudget of those users against the current
// snapshot before answering — stale entries are re-banded on the next
// probe, and a full rebuild (after a window rotation, which changes every
// recovered sketch at once) amortises across queries instead of stalling
// one of them.
//
// The correctness contract is deliberately asymmetric: band membership may
// lag the stream (that only costs recall — a recently rewritten user might
// not collide until re-banded), but everything the probe REPORTS is
// computed live from the current merged snapshot. Candidates are scored
// with the exact estimator against the snapshot, and zero-cardinality
// users are filtered out, so a stale index entry can never surface a
// deleted user or a stale similarity — pinned by the ann_test.go
// invalidation tests, and the reason TopKApprox results are always a
// subset-ordered prefix of the exact scan restricted to the candidate set.

// ErrNoANN is returned by TopKApprox on an engine built without
// EngineConfig.ANN — candidates-free top-K needs the band index.
var ErrNoANN = errors.New("engine: approximate top-K requires Config.ANN")

// ANNConfig enables and parameterises the engine's approximate top-K
// index. The zero value of every field selects a default.
type ANNConfig struct {
	// Bands is b, the number of LSH bands. More bands raise recall and
	// candidate count — the collision probability for a pair whose
	// recovered sketches agree on a fraction p of their bits is
	// 1 − (1 − p^Rows)^Bands — and cost ~16 bytes of index per user each.
	// Default: 64.
	Bands int
	// Rows is r, the bits per band. More rows sharpen the S-curve
	// (fewer noise collisions, steeper recall falloff below the
	// threshold (1/b)^(1/r) of per-bit agreement). Bands·Rows must not
	// exceed Sketch.SketchBits. Default: 16.
	Rows int
	// Seed drives band bucket hashing. Default: derived from the sketch
	// seed, so engines with equal configs band alike.
	Seed uint64
	// RebandBudget bounds how many stale users one probe re-bands before
	// answering, amortising bulk invalidations (initial build excepted —
	// the first probe indexes every user). Negative is unbounded.
	// Default: 16384.
	RebandBudget int
}

// withDefaults resolves zero fields against the sketch seed.
func (c ANNConfig) withDefaults(sketchSeed uint64) ANNConfig {
	if c.Bands == 0 {
		c.Bands = 64
	}
	if c.Rows == 0 {
		c.Rows = 16
	}
	if c.Seed == 0 {
		c.Seed = hashing.Hash64(sketchSeed, 0x616e6e42616e64) // "annBand"
	}
	if c.RebandBudget == 0 {
		c.RebandBudget = 16384
	}
	return c
}

// ANNStats is a health snapshot of the approximate top-K index.
type ANNStats struct {
	// Indexed is the number of users currently banded.
	Indexed int
	// DirtyBacklog is the number of users awaiting (re-)banding; it
	// drains by up to RebandBudget per probe.
	DirtyBacklog int
	// Entries is the index's total bucket entries, stale included.
	Entries int
	// Rebands, Removals, Probes and Rotations count maintenance work
	// since the engine started: users (re-)banded, deleted users dropped,
	// TopKApprox calls, and window rotations that marked the whole index
	// stale.
	Rebands   uint64
	Removals  uint64
	Probes    uint64
	Rotations uint64
	// ProbeReuses counts probes answered from the last probe's recovered
	// sketch and candidate set (same user, same snapshot, no index change
	// in between) — the repeated-probe fast path.
	ProbeReuses uint64
}

// annIndex is the engine's ANN state: the band index plus the lazy
// invalidation bookkeeping. mu serialises maintenance and probing (the
// BandIndex compacts buckets in place during probes); candidate scoring
// happens outside mu on the snapshot view the probe holds.
type annIndex struct {
	mu    sync.Mutex
	cfg   ANNConfig
	ix    *lsh.BandIndex
	built bool
	rot   uint64 // winRot the index was last reconciled against
	dirty map[stream.User]struct{}

	rebands   uint64
	removals  uint64
	probes    uint64
	rotations uint64

	// Probe reuse: a top-K poll loop ("who is similar to u right now?")
	// probes the same user against the same quiescent state over and over,
	// and re-recovering the probe's packed sketch plus re-walking its band
	// buckets per call is pure waste. The last probe's recovered sketch and
	// candidate set are kept and served again while all three freshness
	// coordinates hold: same user, same merged snapshot state (its publish
	// generation — unique across both resident views and across refreshes
	// of one, where a pointer would not be), and same index-mutation stamp (the
	// monotone sum rebands+removals+rotations: any Put, Remove, or
	// rotation invalidation advances it, so a probe never reuses across an
	// index change). lastCands is read-only once cached — the liveness
	// filter copies instead of compacting in place.
	lastUser  stream.User
	lastGen   uint64
	lastStamp uint64
	lastRec   *core.Recovered
	lastCands []stream.User
	haveLast  bool
	reuses    uint64
}

// newANNIndex validates and builds the engine's ANN state.
func newANNIndex(cfg ANNConfig, sketch core.Config) (*annIndex, error) {
	params := lsh.Params{Bands: cfg.Bands, Rows: cfg.Rows, Seed: cfg.Seed}
	ix, err := lsh.NewBandIndex(params, sketch.SketchBits)
	if err != nil {
		return nil, fmt.Errorf("engine: ANN config: %w", err)
	}
	return &annIndex{cfg: cfg, ix: ix, dirty: make(map[stream.User]struct{})}, nil
}

// ANNEnabled reports whether the engine maintains an approximate top-K
// index (Config.ANN was set).
func (e *Engine) ANNEnabled() bool { return e.ann != nil }

// ANNStats reports the approximate top-K index's occupancy and
// maintenance counters; ok is false on an engine without Config.ANN.
func (e *Engine) ANNStats() (st ANNStats, ok bool) {
	a := e.ann
	if a == nil {
		return ANNStats{}, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st = ANNStats{
		Indexed:      a.ix.Len(),
		DirtyBacklog: len(a.dirty),
		Entries:      a.ix.Stats().Entries,
		Rebands:      a.rebands,
		Removals:     a.removals,
		Probes:       a.probes,
		Rotations:    a.rotations,
		ProbeReuses:  a.reuses,
	}
	// The per-shard dirty sets not yet stolen by a probe are backlog too.
	for _, s := range e.shards {
		s.annMu.Lock()
		st.DirtyBacklog += len(s.annDirty)
		s.annMu.Unlock()
	}
	return st, true
}

// TopKApprox returns up to n users similar to u, best first, probing only
// the band index's colliding buckets instead of scanning all users. The
// result is approximate only in WHICH users are considered: every returned
// estimate is computed exactly from the current merged snapshot and ranked
// with the same total order as TopK (core.RankBefore), so the result is a
// subset-ordered prefix of what the exact scan would return over the
// candidate set. Returns ErrNoANN on an engine built without Config.ANN.
//
// Probes are where index maintenance happens: each call re-bands up to
// ANNConfig.RebandBudget users written since their last banding (all of
// them on the first call, which builds the index). Recall against the
// exact scan is workload- and parameter-dependent; the repository
// benchmark's udp-window-ann workload measures it (lsh.recall_at_10) and
// withholds its numbers below 0.95.
func (e *Engine) TopKApprox(u stream.User, n int) ([]core.TopKResult, error) {
	return e.topKApprox(context.Background(), u, n)
}

// TopKApproxContext is TopKApprox with lifecycle and cancellation checks,
// mirroring TopKContext: ErrClosed once Close has begun, and ctx is
// plumbed into the scoring fan-out so cancellation aborts mid-scan.
func (e *Engine) TopKApproxContext(ctx context.Context, u stream.User, n int) ([]core.TopKResult, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.topKApprox(ctx, u, n)
}

// topKApprox is the shared body: snapshot, maintain, probe, score.
func (e *Engine) topKApprox(ctx context.Context, u stream.User, n int) ([]core.TopKResult, error) {
	a := e.ann
	if a == nil {
		return nil, ErrNoANN
	}
	e.maybeAdvance()
	// Read the rotation stamp before merging: if a rotation lands between
	// the two, the index is reconciled against the older stamp and the
	// next probe re-marks it — conservative, never the reverse.
	rot := e.winRot.Load()
	view := e.acquire(e.lagged)
	defer view.Release() // held through maintenance and the scoring fan-out
	snap := view.Sk

	a.mu.Lock()
	if err := e.annMaintain(a, snap, rot); err != nil {
		a.mu.Unlock()
		return nil, err
	}
	stamp := a.rebands + a.removals + a.rotations
	var r *core.Recovered
	var cands []stream.User
	if a.haveLast && a.lastUser == u && a.lastGen == view.Gen() && a.lastStamp == stamp {
		// Repeated probe of the same user against unchanged state: serve
		// the packed recovered sketch and candidate set from the last call.
		r, cands = a.lastRec, a.lastCands
		a.reuses++
	} else {
		r = snap.RecoverSketch(u)
		var err error
		cands, err = a.ix.Candidates(u, r.Words())
		if err != nil {
			a.probes++
			a.mu.Unlock()
			return nil, err
		}
		a.lastUser, a.lastGen, a.lastStamp = u, view.Gen(), stamp
		a.lastRec, a.lastCands = r, cands
		a.haveLast = true
	}
	a.probes++
	a.mu.Unlock()

	// A band entry may outlive its user (removal is lazy, and the budget
	// may not have reached it yet): filter zero-cardinality users so a
	// deleted user never surfaces, whatever the index's staleness. The
	// filter copies rather than compacting cands in place — cands may be
	// the cached slice a later probe will read again.
	live := make([]stream.User, 0, len(cands))
	for _, w := range cands {
		if snap.Cardinality(w) != 0 {
			live = append(live, w)
		}
	}
	return e.rankCandidates(ctx, snap, r, live, n)
}

// annMaintain reconciles the band index with the snapshot under a.mu:
// steal the shards' dirty sets, seed the initial build, mark everything
// stale after a rotation, then re-band up to the budget.
func (e *Engine) annMaintain(a *annIndex, snap *core.VOS, rot uint64) error {
	for _, s := range e.shards {
		s.annMu.Lock()
		if len(s.annDirty) > 0 {
			for u := range s.annDirty {
				a.dirty[u] = struct{}{}
			}
			clear(s.annDirty)
		}
		s.annMu.Unlock()
	}
	budget := a.cfg.RebandBudget
	if !a.built {
		// First probe: index every user the snapshot knows. The build is
		// deliberately not budgeted — a budgeted first probe would answer
		// from a sliver of the population.
		snap.ForEachUser(func(u stream.User, _ int64) bool {
			a.dirty[u] = struct{}{}
			return true
		})
		a.built = true
		budget = -1
	}
	if rot != a.rot {
		// A rotation retires a whole bucket from the shared array, which
		// can flip bits under every user's recovered sketch: mark the
		// entire membership for re-banding and let the budget spread the
		// rebuild across the following probes.
		a.rot = rot
		a.rotations++
		a.ix.ForEachMember(func(u stream.User) bool {
			a.dirty[u] = struct{}{}
			return true
		})
	}
	for u := range a.dirty {
		if budget == 0 {
			break
		}
		if budget > 0 {
			budget--
		}
		delete(a.dirty, u)
		if snap.Cardinality(u) == 0 {
			// All subscriptions cancelled (or retired out of the window):
			// the user holds no sketch state and must not be banded.
			a.ix.Remove(u)
			a.removals++
			continue
		}
		if err := a.ix.Put(u, snap.RecoverSketch(u).Words()); err != nil {
			return err // impossible by construction: sized from the same config
		}
		a.rebands++
	}
	return nil
}
