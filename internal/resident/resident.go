// Package resident keeps a merged query sketch current by delta, once, for
// every tier that answers reads from a merge.
//
// Merging is linear: the merged sketch at t₂ is the merged sketch at t₁
// with the edges applied in between folded in. So instead of re-merging
// every part whenever something has been written, a Pair keeps a resident
// merged view and brings it forward by replaying what its parts applied
// since it was last current. A refresh then costs the churn, with no term in
// the array size or the number of users. What the parts are is the driver's
// business (Source): the engine's are its shards, replayed from their
// journals in memory and re-merged from their sketches; the gateway's are
// its backends, replayed from its own forwarded writes or the journal
// suffixes they ship, and re-merged from their full exports.
//
// Readers can be long (an exact top-K over 100k candidates) and everything
// downstream relies on a published sketch never changing under a reader.
// Readers register on the published view for the duration of the read
// (Acquire/Release), and only under the pair's mutex, which a refresh
// holds: a refresh that finds the published view unread owns it, brings it
// forward in place and republishes it. One that finds it held brings the
// spare — the view published before — forward instead and publishes that,
// and one that finds both held builds a fresh view and leaves the old spare
// to its reader and the garbage collector: a long read never blocks a
// refresh, a write, or another read.
//
// Building a fresh view is the one fallback, taken when replay is
// impossible — never wrong, only slow. Its causes are the Stats counters.
package resident

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/poscache"
)

// View is one resident merged sketch together with the driver's stamp: the
// exact state of the parts the sketch equals. The holder of an acquired
// View reads Sk and Stamp and writes neither.
type View[S any] struct {
	Sk    *core.VOS
	Stamp S

	// gen is unique among all states the pair ever publishes. It stamps the
	// shared recovered-sketch cache (so entries of different views, or of
	// one view before and after a replay, never answer for each other).
	gen uint64

	// readers counts reads in flight on this view. It only ever rises under
	// Pair.mu on the published view, so a refresh (which holds the mutex)
	// that finds a view at zero owns it exclusively.
	readers atomic.Int64
}

// Release ends the read Acquire began; the caller must not touch the view
// afterwards.
func (v *View[S]) Release() { v.readers.Add(-1) }

// Cause says why a refresh built a fresh view instead of replaying.
type Cause int

const (
	// Replayed is the non-cause: a resident view was brought forward.
	Replayed Cause = iota - 1
	First          // no view yet: the pair's first refresh
	Busy           // the published view has readers, and the spare too or there is none
	Overflow       // a part's journal no longer reaches back to the view
	Rotation       // engine: the window rotated since the view was merged
	Import         // engine: ImportSketch published a new base
	Epoch          // gateway: a backend restarted, imported or rotated
	Ring           // gateway: the ring version changed
	NoDelta        // gateway: a backend that offers no delta export
	numCauses
)

// Source is the driver of a Pair: it knows what the parts are.
type Source[S any] interface {
	// Current reports whether a view with stamp s may be served as it is.
	// It runs on every read, under the pair's mutex.
	Current(s *S) bool
	// Refresh returns a view that is current as of the call. Given a view
	// (the published one when no reader holds it) it may bring it forward —
	// folding into from.Sk what the parts applied since from.Stamp, and
	// moving the stamp only together with what it folds in — and return it
	// with Replayed and the number of edges folded in; or it builds a fresh
	// view (Sk and Stamp set) and says why from would not do. from is nil
	// when there is nothing to bring forward, which the pair counts under its
	// own causes (First, Busy). On error nothing is published and from stays
	// exactly what its stamp says.
	Refresh(ctx context.Context, from *View[S]) (v *View[S], cause Cause, edges int, err error)
}

// Pair is the resident view and its spare. The zero value is ready.
type Pair[S any] struct {
	// mu guards cur, spare and gen, and is held across a refresh: readers
	// that arrive while one runs wait for it rather than each starting
	// their own.
	mu         sync.Mutex
	cur, spare *View[S]
	gen        uint64
	// rcache is the one recovered-sketch cache the views share (stamped by
	// generation), so a spare does not pin a second set of recovered
	// sketches.
	rcache *poscache.Cache

	replays       atomic.Uint64
	replayedEdges atomic.Uint64
	rebuilds      [numCauses]atomic.Uint64
}

// Acquire returns the published view with the caller registered as a
// reader, bringing it current first unless src vouches for it; the caller
// must Release it when the read is done. Registration happens under the
// mutex, so a view that is no longer published gains no new readers. Only
// a refresh can fail, and only if src's can.
func (p *Pair[S]) Acquire(ctx context.Context, src Source[S]) (*View[S], error) {
	p.mu.Lock()
	v := p.cur
	if v == nil || !src.Current(&v.Stamp) {
		var err error
		if v, err = p.refresh(ctx, src); err != nil {
			p.mu.Unlock()
			return nil, err
		}
	}
	v.readers.Add(1)
	p.mu.Unlock()
	return v, nil
}

// refresh publishes a view that is current as of the call: the published
// view brought forward in place when no reader holds it, else the spare
// brought forward or a fresh view, with the previously published view
// retired to spare. Caller holds mu.
func (p *Pair[S]) refresh(ctx context.Context, src Source[S]) (*View[S], error) {
	from, cause := p.cur, Replayed
	switch {
	case from == nil:
		cause = First
	case from.readers.Load() == 0:
	case p.spare == nil || p.spare.readers.Load() != 0:
		from, cause = nil, Busy
	default:
		from = p.spare
	}
	v, why, edges, err := src.Refresh(ctx, from)
	if err != nil {
		return nil, err
	}
	if from != nil {
		cause = why
	}
	if cause == Replayed {
		p.replays.Add(1)
		p.replayedEdges.Add(uint64(edges))
	} else {
		p.rebuilds[cause].Add(1)
	}
	if p.rcache == nil {
		p.rcache = poscache.New(core.DefaultRecoveredCacheEntries)
	}
	p.gen++
	v.gen = p.gen
	v.Sk.ShareRecoveredCache(p.rcache, v.gen)
	if v != p.cur {
		p.cur, p.spare = v, p.cur
	}
	return v, nil
}

// Stats counts how a merged query snapshot has been kept current since its
// owner started — the operator's view of whether reads after writes take
// the replay path. An engine and a gateway report the same object; each
// leaves the other's fields zero.
type Stats struct {
	// Replays counts refreshes served by replay, and ReplayedEdges the
	// edges those replays folded in.
	Replays       uint64 `json:"replays"`
	ReplayedEdges uint64 `json:"replayed_edges"`
	// The Rebuilds* fields count fresh views (a full re-merge in the engine,
	// a gather of full exports in the gateway) by cause. Both tiers: no view
	// yet (the first refresh), a journal that no longer reached back to the
	// view, a published view held by a reader with no free spare. Engine: a
	// window rotation, an ImportSketch. Gateway: a backend whose epoch
	// changed (it restarted, imported or rotated), a new ring version, a
	// backend without the delta export, which costs a rebuild on every
	// refresh.
	RebuildsFirst    uint64 `json:"rebuilds_first"`
	RebuildsOverflow uint64 `json:"rebuilds_overflow"`
	RebuildsRotation uint64 `json:"rebuilds_rotation"`
	RebuildsImport   uint64 `json:"rebuilds_import"`
	RebuildsBusy     uint64 `json:"rebuilds_busy"`
	RebuildsEpoch    uint64 `json:"rebuilds_epoch"`
	RebuildsRing     uint64 `json:"rebuilds_ring"`
	RebuildsNoDelta  uint64 `json:"rebuilds_no_delta"`
	// JournalOverflows (engine) counts applied batches evicted from a shard
	// journal to keep it within its bound. Evictions are routine under
	// sustained writes; only a reader whose cursor lies before an evicted
	// batch falls back, and that shows as RebuildsOverflow.
	JournalOverflows uint64 `json:"journal_overflows"`
	// GatheredBytes (gateway) counts response bytes of backend exports,
	// deltas and full sketches alike.
	GatheredBytes uint64 `json:"gathered_bytes"`
	// LocalReplays (gateway) counts the Replays that asked no backend.
	LocalReplays uint64 `json:"local_replays,omitempty"`
}

// Rebuilds is the total number of fresh views built.
func (s Stats) Rebuilds() uint64 {
	return s.RebuildsFirst + s.RebuildsOverflow + s.RebuildsRotation + s.RebuildsImport +
		s.RebuildsBusy + s.RebuildsEpoch + s.RebuildsRing + s.RebuildsNoDelta
}

// Stats reports the pair's counters; the owner adds the fields only it can
// count.
func (p *Pair[S]) Stats() Stats {
	return Stats{
		Replays:          p.replays.Load(),
		ReplayedEdges:    p.replayedEdges.Load(),
		RebuildsFirst:    p.rebuilds[First].Load(),
		RebuildsOverflow: p.rebuilds[Overflow].Load(),
		RebuildsRotation: p.rebuilds[Rotation].Load(),
		RebuildsImport:   p.rebuilds[Import].Load(),
		RebuildsBusy:     p.rebuilds[Busy].Load(),
		RebuildsEpoch:    p.rebuilds[Epoch].Load(),
		RebuildsRing:     p.rebuilds[Ring].Load(),
		RebuildsNoDelta:  p.rebuilds[NoDelta].Load(),
	}
}
