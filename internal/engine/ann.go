package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
// lazy, happens on probes, and costs the churn: the index is the third reader
// of the shard journals (after the engine's own views and ExportSince). It
// keeps the engine state it was last reconciled to — the same stamp a view
// carries — and a probe brings it to the acquired view's stamp by reading each
// shard's journal range (index cursor, view cursor] (shard.journalRange). The
// paper's update rule is that an element (u, i, ±) flips exactly bit ψ(i) of
// u's virtual sketch, and the index keeps every member's band bits, so the
// probe applies each edge of the range to them as it reads it
// (lsh.BandIndex.Toggle): one stored bit flipped and its band noted, O(1) an
// edge, with no array read and nothing recovered from the view; the index
// re-keys each noted band once before Candidates reads it. Only two
// kinds of user are noted for later: users the index does not hold yet (a
// whole banding) and written members the view holds at zero cardinality (to
// be dropped: in a window, or after a delete-before-insert, an insert can
// zero a negative count too). Reading exactly up to the view's cursor is
// what makes a view the workers have moved past safe: a write the view does
// not hold yet stays in the journal for the probe whose view does.
//
// Bits that other users' writes flip under a member (noise: the array is
// shared) are not tracked, not even in a band the member's own write
// re-keys, and need not be. They are as likely before a key was taken as
// after it, so a key that predates one collides with a fresh probe exactly
// as often as a key that follows it — a maintained index and one rebuilt
// from scratch have the same recall (TestANNIncrementalRecall).
// On a config where no two users share an array position there is no noise,
// and the toggled keys equal a full recovery's (TestANNDifferential).
//
// A whole user is re-banded — all k bits recovered, every band re-keyed —
// only where no journal range says which bands changed: a user the index
// does not hold yet; every user after a window rotation (a retired bucket
// flips bits under everyone) or a new import generation (ImportSketch brings
// users no journal ever named); and users whose writes were evicted from a
// journal before a probe read them. For the last, the worker spills the
// users of each batch it evicts while the index's cursor is still behind it
// (shard.annSpill), so a burst past the journal bound re-bands the users the
// burst wrote, never the membership. While the next read is going to owe
// everyone anyway — nothing read yet, or a rotation since the last read — the
// worker spills nobody and notes only how far its evictions reach
// (shard.annSkip); a read whose cursor is behind that mark is a whole one, so
// a view that does not reach the mark leaves the read after it whole as well.
// ANNConfig.RebandBudget spreads any of it over the probes that follow; what
// is still owed is kept per user (annIndex.dirty). Toggles are never owed.
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
	// 1 − (1 − p^Rows)^Bands — and cost 40 to 48 bytes of index per user
	// each: a 32-byte node record and its share of the chain heads (8 more
	// per 64 rows past the first 64). Default: 64.
	Bands int
	// Rows is r, the bits per band. More rows sharpen the S-curve
	// (fewer noise collisions, steeper recall falloff below the
	// threshold (1/b)^(1/r) of per-bit agreement). Bands·Rows must not
	// exceed Sketch.SketchBits. Default: 16.
	Rows int
	// RebandBudget bounds how many stale users one probe re-bands (or drops,
	// at zero cardinality) before answering, amortising bulk invalidations
	// (initial build excepted — the first probe indexes every user). Edges
	// applied to members' band bits spend none of it. Negative is unbounded.
	// Default: 16384.
	RebandBudget int
}

// withDefaults resolves zero fields.
func (c ANNConfig) withDefaults() ANNConfig {
	if c.Bands == 0 {
		c.Bands = 64
	}
	if c.Rows == 0 {
		c.Rows = 16
	}
	if c.RebandBudget == 0 {
		c.RebandBudget = 16384
	}
	return c
}

// ANNStats is a health snapshot of the approximate top-K index.
type ANNStats struct {
	// Indexed is the number of users currently banded.
	Indexed int `json:"indexed"`
	// DirtyBacklog is the maintenance still owed: users awaiting a whole
	// (re-)banding or a cardinality check, spilled users no probe has taken
	// yet, and one for each shard whose journal has dropped writes the next
	// probe answers by re-banding everyone. It drains by up to RebandBudget
	// per probe.
	DirtyBacklog int `json:"dirty_backlog"`
	// Entries is the index's total bucket entries: one per indexed user
	// and band.
	Entries int `json:"entries"`
	// Rebands, Removals, Probes and Rotations count maintenance work
	// since the engine started: users (re-)banded whole, deleted users
	// dropped, TopKApprox calls, and window rotations that marked the whole
	// index stale.
	Rebands   uint64 `json:"rebands"`
	Removals  uint64 `json:"removals"`
	Probes    uint64 `json:"probes"`
	Rotations uint64 `json:"rotations"`
	// BandRekeys counts band bits toggled from a journal range — the path a
	// write to a member takes when the index follows it within a journal
	// bound. A band toggled twice in one range is re-keyed once.
	BandRekeys uint64 `json:"band_rekeys"`
	// JournalFallbacks counts shard reads that found the journal evicted
	// past the index's cursor and took the spilled users instead, and
	// SpilledUsers the users marked for a whole re-banding that way.
	JournalFallbacks uint64 `json:"journal_fallbacks"`
	SpilledUsers     uint64 `json:"spilled_users"`
	// ProbeReuses is always 0: every probe recovers its sketch and walks
	// its bands. The field stays so the stats wire keeps its shape.
	ProbeReuses uint64 `json:"probe_reuses"`
}

// annIndex is the engine's ANN state: the band index, the engine state it
// has been reconciled to, and what it still owes. mu serialises maintenance
// and probing (the BandIndex is not safe for concurrent use); the probe's
// recovery and candidate scoring happen outside mu on the view it holds.
type annIndex struct {
	mu  sync.Mutex
	cfg ANNConfig
	ix  *lsh.BandIndex

	// The engine state read so far: everything up to it is either in the band
	// index or in dirty. built is false until the first probe. read.at[i] is
	// also published as shard i's annAt, and read.rot as readRot (noRot until
	// built): while Engine.winRot differs from it the next read is a whole one,
	// which is what the workers ask before they spill (Engine.record).
	built   bool
	read    stamp
	readRot atomic.Uint64

	// dirty is the work owed per user: true for a whole (re-)banding, false
	// for a look at its cardinality alone (it was zero when marked).
	dirty map[stream.User]bool

	rebands   uint64
	removals  uint64
	probes    uint64
	rotations uint64
	rekeys    uint64
	fallbacks uint64
	spilled   uint64
}

// newANNIndex validates and builds the engine's ANN state.
func newANNIndex(cfg ANNConfig, sketch core.Config, shards int) (*annIndex, error) {
	// Band buckets hash under a seed derived from the sketch's, so engines
	// with equal configs band alike.
	params := lsh.Params{Bands: cfg.Bands, Rows: cfg.Rows, Seed: hashing.Hash64(sketch.Seed, 0x616e6e42616e64)} // "annBand"
	ix, err := lsh.NewBandIndex(params, sketch.SketchBits)
	if err != nil {
		return nil, fmt.Errorf("engine: ANN config: %w", err)
	}
	a := &annIndex{
		cfg:   cfg,
		ix:    ix,
		read:  stamp{at: make([]uint64, shards)},
		dirty: make(map[stream.User]bool),
	}
	a.readRot.Store(noRot)
	return a, nil
}

// noRot is annIndex.readRot before the first read: no rotation count.
const noRot = math.MaxUint64

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
		Indexed:          a.ix.Len(),
		DirtyBacklog:     len(a.dirty),
		Entries:          a.ix.Len() * a.ix.Params().Bands,
		Rebands:          a.rebands,
		Removals:         a.removals,
		Probes:           a.probes,
		Rotations:        a.rotations,
		BandRekeys:       a.rekeys,
		JournalFallbacks: a.fallbacks,
		SpilledUsers:     a.spilled,
	}
	for i, s := range e.shards {
		s.jMu.Lock()
		st.DirtyBacklog += len(s.annSpill)
		if s.annSkip > a.read.at[i] {
			st.DirtyBacklog++
		}
		s.jMu.Unlock()
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
// Probes are where index maintenance happens: each call applies the edges
// written since the last one to the members' stored band bits and re-bands
// up to ANNConfig.RebandBudget users whole (all of them on the first call,
// which builds the index). Recall against the
// exact scan is workload- and parameter-dependent; the repository
// benchmark's udp-window-ann workload measures it (lsh.recall_at_10) and
// withholds its numbers below 0.95.
func (e *Engine) TopKApprox(u stream.User, n int) ([]core.TopKResult, error) {
	return e.topKApprox(context.Background(), u, n)
}

// TopKApproxContext is TopKApprox with lifecycle and cancellation checks,
// mirroring TopKContext: ErrClosed once Close has begun, and ctx is
// plumbed into the candidate scan so cancellation aborts mid-scan.
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
	view := e.acquire()
	defer view.Release() // held through maintenance and the scoring
	return e.topKApproxOn(ctx, a, view, u, n)
}

// topKApproxOn answers the probe from view, which the caller holds: by the
// time a probe has a.mu another may have moved the index past its view.
func (e *Engine) topKApproxOn(ctx context.Context, a *annIndex, view *view, u stream.User, n int) ([]core.TopKResult, error) {
	// The recovery reads only the view and its internally locked caches, as
	// Engine.TopK does with no lock at all.
	snap := view.Sk
	r := snap.RecoverSketch(u)
	a.mu.Lock()
	if err := e.annMaintain(a, view); err != nil {
		a.mu.Unlock()
		return nil, err
	}
	a.probes++
	cands, err := a.ix.Candidates(u, r.Words())
	a.mu.Unlock()
	if err != nil {
		return nil, err
	}

	// A band entry may outlive its user (the reband budget may not have
	// reached its removal yet): filter zero-cardinality users so a
	// deleted user never surfaces, whatever the index's staleness.
	live := cands[:0]
	for _, w := range cands {
		if snap.Cardinality(w) != 0 {
			live = append(live, w)
		}
	}
	return snap.TopKRecoveredContext(ctx, r, live, n)
}

// annMaintain reconciles the band index with the view under a.mu: read what
// the view holds beyond the index's cursor into dirty, then work dirty off
// against the view, up to the budget.
func (e *Engine) annMaintain(a *annIndex, v *view) error {
	st := &v.Stamp
	// Published views are totally ordered, and the cursor is the stamp of
	// one of them. A probe that lost the race for a.mu to one holding a
	// newer view must not work dirty off either: its view does not hold the
	// writes dirty was read from.
	if st.gen < a.read.gen || st.rot < a.read.rot {
		return nil
	}
	for i, at := range st.at {
		if at < a.read.at[i] {
			return nil
		}
	}

	budget := a.cfg.RebandBudget
	// Without a journal range to tell what changed — nothing has been read yet,
	// an import brought users no journal named, a rotation retired a bucket from
	// under every user's recovered sketch — every user is owed a re-banding.
	whole := !a.built || st.gen != a.read.gen || st.rot != a.read.rot
	if !a.built {
		// The first probe indexes everyone, whatever the budget: a budgeted
		// one would answer from a sliver of the population.
		a.built, budget = true, -1
	}
	if st.rot != a.read.rot {
		a.rotations++
	}
	a.read.gen, a.read.rot = st.gen, st.rot
	a.readRot.Store(st.rot)
	for i, s := range e.shards {
		if from, to := a.read.at[i], st.at[i]; to > from || whole {
			// annRead says so too, of a range the worker dropped part of unspilled.
			whole = e.annRead(a, s, v.Sk, from, to, whole) || whole
			a.read.at[i] = to
			s.annAt.Store(to)
		}
	}
	if whole {
		// Every user of the view, and every member (it may be gone from the
		// view) for a look.
		v.Sk.ForEachUser(func(u stream.User, _ int64) bool {
			a.dirty[u] = true
			return true
		})
		a.ix.ForEachMember(func(u stream.User) bool {
			a.dirty[u] = true
			return true
		})
	}
	return e.annDrain(a, v.Sk, budget)
}

// annRead moves the index's cursor on shard s from from to to: every edge of
// the journal range (from, to] toggles its bit of its user's stored bands,
// or marks a user the index does not hold for a whole banding; a member the
// view holds at zero cardinality is marked to be dropped. Where the journal
// no longer reaches back to from, the users of the evicted part are in the
// spill set, each under the processed count of its last evicted batch, and
// those the view holds in full (count ≤ to) are owed a whole re-banding; the
// rest wait for a view that does. whole is set when every user is owed one
// anyway and only the spill set needs settling; it is returned set when the
// range holds a batch the worker evicted without spilling (shard.annSkip).
// The range is cut before the spill set is settled: a batch the worker
// evicts in between is then in both, where the other order would find it in
// neither.
func (e *Engine) annRead(a *annIndex, s *shard, sk *core.VOS, from, to uint64, whole bool) bool {
	var cut []journalEntry
	reaches := true
	if !whole {
		cut, _, reaches = s.journalRange(from, to)
		defer s.journalDone() // after the last batch of cut below
	}
	s.jMu.Lock()
	whole = whole || s.annSkip > from
	for u, end := range s.annSpill {
		if end > to {
			continue
		}
		if end > from && !whole { // else read already, or marked already
			a.dirty[u] = true
			a.spilled++
		}
		delete(s.annSpill, u)
	}
	s.jMu.Unlock()
	if whole {
		return true
	}
	if !reaches {
		a.fallbacks++
	}

	banded := a.cfg.Bands * a.cfg.Rows
	// A member's cardinality is the view's, the same at each of its edges: it
	// is looked at once. looked[u%128] holds ^u (never 0) of the member looked
	// at last there; only members sharing an entry are looked at again.
	var looked [128]stream.User
	for _, en := range cut {
		for _, ed := range en.batch {
			j := sk.Slot(ed.Item)
			if !a.ix.Toggle(ed.User, j) {
				a.dirty[ed.User] = true // not banded yet
				continue
			}
			if j < banded {
				a.rekeys++
			}
			if l := &looked[ed.User%stream.User(len(looked))]; *l != ^ed.User {
				*l = ^ed.User
				if sk.Cardinality(ed.User) == 0 {
					if _, owed := a.dirty[ed.User]; !owed {
						a.dirty[ed.User] = false
					}
				}
			}
		}
	}
	return false
}

// annDrain works dirty off against the snapshot, spending the budget (in
// users re-banded or dropped; negative is unbounded).
func (e *Engine) annDrain(a *annIndex, snap *core.VOS, budget int) error {
	for u, whole := range a.dirty {
		if budget == 0 {
			break
		}
		member := a.ix.Has(u)
		switch {
		case snap.Cardinality(u) == 0:
			// All subscriptions cancelled (or retired out of the window):
			// the user holds no sketch state and must not be banded.
			if member {
				a.ix.Remove(u)
				a.removals++
			}
			budget--
		case whole || !member:
			if err := a.ix.Put(u, snap.RecoverSketch(u).Words()); err != nil {
				return err // impossible by construction: sized from the same config
			}
			a.rebands++
			budget--
		}
		delete(a.dirty, u)
	}
	return nil
}
