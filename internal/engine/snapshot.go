package engine

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
)

// The merged query snapshot, kept current by delta.
//
// Merging is linear: the merged sketch at t₂ is the merged sketch at t₁
// with the edges applied in between folded in. So instead of re-merging
// every shard whenever a processed counter has moved (a full-array XOR per
// shard plus a rebuild of the whole per-user counter map), the engine keeps
// two resident merged views and brings one forward by replaying the batches
// the shard workers applied since that view was last current. A refresh
// then costs the churn — core.VOS.ProcessBatch over the journal suffix —
// with no term in the array size or the number of users.
//
// Two views, because readers can be long (an exact top-K over 100k
// candidates) and everything downstream relies on a published sketch never
// changing under a reader. Readers register on the published view for the
// duration of the read (acquire/release); a refresh only ever writes the
// OTHER view, and only when its readers — registered two generations ago —
// have drained. The refreshed view is then published and the previously
// published one becomes the spare. A spare that is still busy is left to
// its reader and the garbage collector, and the refresh re-merges into a
// fresh view instead: a long read never blocks a refresh, a write, or
// another read.
//
// The full re-merge is the one fallback, taken when replay is impossible —
// never wrong, only slow. Its causes are the SnapshotStats rebuild counters.

// journalEntry is one batch a shard worker applied. end is the shard's
// processed count once the batch was in, so a view's per-shard cursor
// (view.at) is at the same time the position in the journal it has replayed
// up to. The batch slice is the engine-owned one the worker was handed: it
// is never written again, so the journal holds it without copying.
type journalEntry struct {
	batch []stream.Edge
	end   uint64
}

// journalWordsPerEdge sizes the per-shard journal bound from the array:
// a shard's journal holds at most words/16 edges (words = MemoryBits/64).
// Replaying must stay cheaper than the re-merge it replaces. The re-merge
// XORs the array at roughly 2.5 ns a word per shard (bitset.xor ≈ 3 GB/s)
// and then rebuilds the counter map, which for any populated sketch costs
// more than the XOR (20k users: 1.0 ms of a 1.15 ms re-merge at 2×32k
// words); replay costs ~70 ns an edge (core.apply_ns_per_edge). A full
// journal therefore replays in 70/16 ≈ 4.4 ns a word — level with the
// re-merge once the counter map is counted — and anything shorter is a win.
// The bound also caps what the journal pins: words/16 edges of 24 bytes is
// under a fifth of the shard's array.
const journalWordsPerEdge = 16

// view is one resident merged sketch together with the exact engine state
// it equals: the recovery base it was merged from, the window rotation it
// was merged under, and, per shard, the prefix of applied batches it holds.
type view struct {
	sk   *core.VOS
	base *core.VOS // e.base at merge time; an import publishes a new one
	rot  uint64    // winRot at merge time; a rotation changes shard state without a journal entry
	at   []uint64  // per-shard processed counts: every batch up to at[i], none after

	// gen is unique among all states the engine ever publishes. It stamps
	// the shared recovered-sketch cache (so entries of different views, or
	// of one view before and after a replay, never answer for each other)
	// and identifies the state for ANN probe reuse.
	gen uint64

	// readers counts reads in flight on this view. It only ever rises under
	// snapMu on the published view, so a refresh (which holds snapMu) that
	// finds the spare at zero owns it exclusively.
	readers atomic.Int64
}

// release ends the read acquire began.
func (v *view) release() { v.readers.Add(-1) }

// rebuildCause says why a refresh fell back to the full re-merge.
type rebuildCause int

const (
	causeFirst    rebuildCause = iota // no second view yet: the engine's first two refreshes
	causeOverflow                     // a shard's journal no longer reaches back to the view
	causeRotation                     // the window rotated since the view was merged
	causeImport                       // ImportSketch published a new base
	causeBusy                         // the spare still has readers
	numCauses
	replayed rebuildCause = -1
)

// snapshotCounters are the SnapshotStats sources, plain atomics.
type snapshotCounters struct {
	replays       atomic.Uint64
	replayedEdges atomic.Uint64
	overflows     atomic.Uint64
	rebuilds      [numCauses]atomic.Uint64
}

// SnapshotStats counts how the merged query snapshot has been kept current
// since the engine started — the operator's view of whether reads after
// writes take the replay path.
type SnapshotStats struct {
	// Replays counts refreshes served by journal replay, and ReplayedEdges
	// the edges those replays folded in.
	Replays       uint64
	ReplayedEdges uint64
	// The Rebuilds* fields count full re-merges by cause: no second view
	// yet (the first two refreshes), a journal that overflowed, a window
	// rotation, an ImportSketch, and a spare view still held by a reader.
	// After each of the first four the next refresh re-merges for the same
	// reason once more, to bring the other view back.
	RebuildsFirst    uint64
	RebuildsOverflow uint64
	RebuildsRotation uint64
	RebuildsImport   uint64
	RebuildsBusy     uint64
	// JournalOverflows counts shard journals dropped for outgrowing their
	// bound — every long write-only stretch causes one per shard.
	JournalOverflows uint64
}

// Rebuilds is the total number of full re-merges.
func (s SnapshotStats) Rebuilds() uint64 {
	return s.RebuildsFirst + s.RebuildsOverflow + s.RebuildsRotation + s.RebuildsImport + s.RebuildsBusy
}

// SnapshotStats reports the snapshot maintenance counters.
func (e *Engine) SnapshotStats() SnapshotStats {
	c := &e.snapCount
	return SnapshotStats{
		Replays:          c.replays.Load(),
		ReplayedEdges:    c.replayedEdges.Load(),
		RebuildsFirst:    c.rebuilds[causeFirst].Load(),
		RebuildsOverflow: c.rebuilds[causeOverflow].Load(),
		RebuildsRotation: c.rebuilds[causeRotation].Load(),
		RebuildsImport:   c.rebuilds[causeImport].Load(),
		RebuildsBusy:     c.rebuilds[causeBusy].Load(),
		JournalOverflows: c.overflows.Load(),
	}
}

// journalAfter is the index of the first entry of j that lies past the
// processed count at: the suffix a view with that cursor has not seen.
func journalAfter(j []journalEntry, at uint64) int {
	return sort.Search(len(j), func(k int) bool { return j[k].end > at })
}

// record journals a batch the worker has just applied. Called inside the
// skMu critical section that advances processed to end, so a refresh that
// holds skMu.RLock finds the journal ending exactly at the processed count.
// A journal that would outgrow its bound is dropped and stays off until the
// next re-merge restarts it, so a write-only stretch pays one mutex
// round-trip a batch and pins nothing.
func (e *Engine) record(s *shard, batch []stream.Edge, end uint64) {
	s.jMu.Lock()
	if s.jOn {
		if end-s.jFrom > e.journalMax {
			s.journal, s.jOn = nil, false
			e.snapCount.overflows.Add(1)
		} else {
			s.journal = append(s.journal, journalEntry{batch: batch, end: end})
		}
	}
	s.jMu.Unlock()
}

// acquire returns the published merged view with the caller registered as
// a reader; the caller must release it when the read is done, and must not
// touch the view afterwards. The view is brought current first when more
// than maxLag edges have been applied since it was (0 demands exactness
// over every applied edge, which Checkpoint and MarshalBinary use to
// override a relaxed Config.SnapshotMaxLag). Registration happens under
// snapMu, so a view that is no longer published gains no new readers.
func (e *Engine) acquire(maxLag uint64) *view {
	e.snapMu.Lock()
	v := e.cur
	if v == nil || v.rot != e.winRot.Load() || v.base != e.base.Load() || e.lag(v) > maxLag {
		v = e.refresh()
	}
	v.readers.Add(1)
	e.snapMu.Unlock()
	return v
}

// lag is the number of edges applied since v was current. A rotation or an
// import changes state without advancing any processed counter, which is
// why acquire checks those stamps before the lag can vouch for the view.
func (e *Engine) lag(v *view) uint64 {
	lag := uint64(0)
	for i, s := range e.shards {
		lag += s.processed.Load() - v.at[i]
	}
	return lag
}

// refresh publishes a view that is current as of the call: the spare
// brought forward by journal replay when that is possible, a full re-merge
// into a fresh view otherwise. The previously published view becomes the
// spare. Caller holds snapMu.
func (e *Engine) refresh() *view {
	// In window mode, hold the window read-lock across the whole refresh so
	// the view never observes shard A pre-rotation and shard B
	// post-rotation (winMu before skMu — see window.go).
	if e.cfg.Window != nil {
		e.winMu.RLock()
		defer e.winMu.RUnlock()
	}
	base, rot := e.base.Load(), e.winRot.Load()
	v := e.spare
	if cause := e.replay(v, base, rot); cause != replayed {
		v = e.rebuild(base, rot)
		e.snapCount.rebuilds[cause].Add(1)
	}
	e.snapGen++
	v.gen = e.snapGen
	v.sk.ShareRecoveredCache(e.rcache, v.gen)
	e.cur, e.spare = v, e.cur
	e.trimJournals()
	return v
}

// replay brings v forward to the present by folding in the batches each
// shard has applied since v.at, or reports why it cannot.
func (e *Engine) replay(v *view, base *core.VOS, rot uint64) rebuildCause {
	switch {
	case v == nil:
		return causeFirst
	case v.readers.Load() != 0:
		return causeBusy
	case v.base != base:
		return causeImport
	case v.rot != rot:
		return causeRotation
	}
	// Shard by shard: cut the journal at the present inside the shard's
	// critical section, then fold the cut in outside it. A shard whose
	// journal no longer reaches back to the view's cursor sends the refresh
	// to the fallback; the view, by then partly brought forward, is still an
	// exact per-shard prefix and is dropped by the re-merge anyway.
	edges := 0
	for i, s := range e.shards {
		s.skMu.RLock()
		s.jMu.Lock()
		ok := s.jOn && s.jFrom <= v.at[i]
		var cut []journalEntry
		if ok {
			cut = s.journal[journalAfter(s.journal, v.at[i]):]
		}
		s.jMu.Unlock()
		s.skMu.RUnlock()
		if !ok {
			return causeOverflow
		}
		// The cut stays valid unlocked: the worker only appends past it, and
		// trimming happens under snapMu, which this refresh holds.
		for _, en := range cut {
			v.sk.ProcessBatch(en.batch)
			edges += len(en.batch)
		}
		if n := len(cut); n > 0 {
			v.at[i] = cut[n-1].end
		}
	}
	e.snapCount.replays.Add(1)
	e.snapCount.replayedEdges.Add(uint64(edges))
	return replayed
}

// rebuild merges the base and every shard into a fresh view — the fallback
// path, and the only place a journal is (re)started.
func (e *Engine) rebuild(base *core.VOS, rot uint64) *view {
	merged := core.MustNew(e.cfg.Sketch)
	merged.SetPositionCache(e.pcache) // tables survive snapshot rebuilds
	v := &view{sk: merged, base: base, rot: rot, at: make([]uint64, len(e.shards))}
	if base != nil {
		// The recovered checkpoint (possibly extended by ImportSketch);
		// immutable once published, identical config by Open's and
		// ImportSketch's validation, so the merge cannot fail.
		if err := merged.Merge(base); err != nil {
			panic(fmt.Sprintf("engine: base merge failed: %v", err))
		}
	}
	if e.winBase != nil {
		// The recovered window base rotates under winMu, which refresh holds.
		if err := merged.Merge(e.winBase.Merged()); err != nil {
			panic(fmt.Sprintf("engine: window base merge failed: %v", err))
		}
	}
	for i, s := range e.shards {
		s.skMu.RLock()
		v.at[i] = s.processed.Load()
		err := merged.Merge(s.sk)
		// A journal that is off restarts here, in the critical section that
		// fixes the view's cut, so the journal begins exactly where the
		// view ends. One that is on is left alone: it may still reach back
		// to the other view.
		s.jMu.Lock()
		if !s.jOn {
			s.jOn, s.jFrom = true, v.at[i]
		}
		s.jMu.Unlock()
		s.skMu.RUnlock()
		if err != nil {
			// Impossible: every shard shares e.cfg.Sketch by construction.
			panic(fmt.Sprintf("engine: shard merge failed: %v", err))
		}
	}
	return v
}

// trimJournals drops the journal entries neither resident view can still
// need: everything up to the older of the two cursors, or up to the
// published view's alone when the spare can never be replayed again.
func (e *Engine) trimJournals() {
	cur, sp := e.cur, e.spare
	if sp != nil && (sp.base != cur.base || sp.rot != cur.rot) {
		sp = nil
	}
	for i, s := range e.shards {
		keep := cur.at[i]
		if sp != nil && sp.at[i] < keep {
			keep = sp.at[i]
		}
		s.jMu.Lock()
		if s.jOn && keep > s.jFrom {
			n := copy(s.journal, s.journal[journalAfter(s.journal, keep):])
			clear(s.journal[n:]) // release the dropped batches
			s.journal, s.jFrom = s.journal[:n], keep
		}
		s.jMu.Unlock()
	}
}
