package engine

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/resident"
	"github.com/vossketch/vos/internal/stream"
)

// The merged query snapshot is a resident.Pair (see that package for when a
// view is brought forward in place) whose parts are this engine's shards: a
// refresh brings a view forward by replaying the batches the shard workers
// applied since it was last current — core.VOS.ProcessBatch over each
// shard's journal suffix — and re-merges every shard only when replay is
// impossible. The same journals answer remote readers (ExportSince,
// delta.go), so nothing here may assume the engine's own views are the only
// cursors.

// journalEntry is one batch a shard worker applied. end is the shard's
// processed count once the batch was in, so a reader's per-shard cursor is
// at the same time the position in the journal it has replayed up to. The
// batch slice is the batch buffer the worker was handed, held without
// copying: it is not written while the journal holds it, and once evicted it
// goes back to the producers (shard.free) unless a reader may still be in it.
type journalEntry struct {
	batch []stream.Edge
	end   uint64
}

// journalWordsPerEdge sizes the per-shard journal bound from the array:
// a shard's journal holds at most words/16 edges (words = MemoryBits/64).
// Replaying must stay cheaper than the re-merge it replaces. The re-merge
// XORs the array at 1.2 to 2.2 ns a word per shard (bitset.xor_mb_per_s
// reads 3.7 to 6.6 GB/s from run to run) and then adds the shard's counters
// into the view's table — a scan of the one, a bump into the other — which
// for any populated sketch still costs more than the XOR (20k users over two
// shards: core.merge_ms 0.38 to 0.53 ms a 32k-word shard, 12 to 16 ns a word
// all told). Replay costs about 20 ns an edge (core.apply_ns_per_edge, one
// pass over a sketch just decoded: 20 to 23 on embed-churn, 12 to 14 on the
// other stacks; 17 warm, the root BenchmarkSketchProcessBatch), so a full
// journal replays in 20/16 ≈ 1.3 ns a word, about ten times under the
// re-merge, and time alone would allow a journal several times longer. The
// constant stays for the other half of the bound, what the journal pins:
// words/16 edges of 24 bytes is under a fifth of the shard's array (a batch
// buffer holds its own edges and nothing else), and nothing measured shows
// reads falling back for want of journal.
const journalWordsPerEdge = 16

// stamp names one exact engine state, in the one coordinate type every
// reader of the stream holds: a resident view, an export cursor (delta.go),
// the approximate top-K index (ann.go). gen and rot are the epoch — they count
// the events that change shard state without a journal entry, and a reader
// from another epoch is never brought forward, only rebuilt.
type stamp struct {
	gen uint64   // Engine.imports: an ImportSketch folds state into the shards
	rot uint64   // Engine.winRot: a rotation retires a bucket from under every shard
	at  []uint64 // per-shard processed counts: every batch up to at[i], none after
}

type view = resident.View[stamp]

// SnapshotStats counts how the merged query snapshot has been kept current
// since the engine started (see resident.Stats).
type SnapshotStats = resident.Stats

// SnapshotStats reports the snapshot maintenance counters.
func (e *Engine) SnapshotStats() SnapshotStats {
	st := e.views.Stats()
	st.JournalOverflows = e.journalEvicted.Load()
	return st
}

// journalAfter is the index of the first entry of j that lies past the
// processed count at: the suffix a reader with that cursor has not seen.
func journalAfter(j []journalEntry, at uint64) int {
	return sort.Search(len(j), func(k int) bool { return j[k].end > at })
}

// record journals a batch the worker has just applied. Called inside the
// skMu critical section that advances processed to end, so a reader that
// holds skMu.RLock finds the journal ending exactly at the processed count.
// The journal is a ring of the newest batches: what no longer fits the
// bound is evicted oldest first and jFrom moves up behind it, whoever may
// still have wanted it — any number of readers replay from any cursor at
// or past jFrom, and the rest fall back. The one reader whose fallback would
// cost more than the write did, the approximate top-K index, is left the
// users of what it missed — or, while its next read owes every user a
// re-banding whatever it finds (nothing read yet, or a rotation since), only
// how far what it missed goes (see ann.go). An evicted batch buffer goes on
// the shard's free list — here, inside jMu, and only while no reader is
// between its cut and its last batch: a cut taken later cannot hold the
// entry, one taken earlier has been counted out. Evicted under a reader, or
// onto a full list, it is the collector's.
func (e *Engine) record(s *shard, batch []stream.Edge, end uint64) {
	s.jMu.Lock()
	if len(s.journal) == cap(s.journal) {
		// The window is at the end of its ring: back to the front — of a
		// longer ring if it fills half of this one, as short residues make it.
		if 2*len(s.journal) >= len(s.jRing) {
			s.jRing = make([]journalEntry, max(8, 4*len(s.journal)))
		}
		n := copy(s.jRing, s.journal)
		clear(s.jRing[n:])
		s.journal = s.jRing[:n]
	}
	s.journal = append(s.journal, journalEntry{batch: batch, end: end})
	drop := 0
	for drop < len(s.journal) && end-s.jFrom > e.journalMax {
		evicted := s.journal[drop]
		s.jFrom = evicted.end
		switch a := e.ann; {
		case a == nil:
		case a.readRot.Load() != e.winRot.Load():
			s.annSkip = evicted.end
		case s.annAt.Load() < evicted.end:
			// The index has not read this batch yet and now never will: keep
			// at least who it wrote.
			for _, ed := range evicted.batch {
				s.annSpill[ed.User] = evicted.end
			}
		}
		if s.jReaders == 0 && cap(evicted.batch) == e.cfg.BatchSize {
			select {
			case s.free <- evicted.batch[:0]:
			default:
			}
		}
		drop++
	}
	if drop > 0 {
		clear(s.journal[:drop]) // let go of the evicted batches
		s.journal = s.journal[drop:]
		e.journalEvicted.Add(uint64(drop))
	}
	s.jMu.Unlock()
}

// journalRange is the one journal read there is: the entries in (from, to],
// to clipped to the shard's processed count inside its critical section, and
// the count the cut reaches; a from inside a batch (Engine.ProcessBatchSpan)
// cuts that batch there. ok is false when the journal no longer reaches back
// to from (or from is past the processed count); cut is then what is left.
// The entries are copies and the worker evicts underneath any reader: the
// reader is counted in here, and the batches stay its to read, with the
// locks gone, until it calls journalDone.
func (s *shard) journalRange(from, to uint64) (cut []journalEntry, end uint64, ok bool) {
	s.skMu.RLock()
	s.jMu.Lock()
	s.jReaders++
	end = min(to, s.processed.Load())
	if from <= end {
		cut = append(cut, s.journal[journalAfter(s.journal, from):journalAfter(s.journal, end)]...)
		ok = s.jFrom <= from
		if len(cut) > 0 && cut[0].end-from < uint64(len(cut[0].batch)) {
			cut[0].batch = cut[0].batch[uint64(len(cut[0].batch))-(cut[0].end-from):]
		}
	}
	s.jMu.Unlock()
	s.skMu.RUnlock()
	return cut, end, ok
}

// journalDone counts out a reader that has read the last batch of its cut.
func (s *shard) journalDone() {
	s.jMu.Lock()
	s.jReaders--
	s.jMu.Unlock()
}

// since brings a reader at st to the present: every batch the shards applied
// past st.at goes to apply, shard by shard, and st.at moves up behind it. Any
// answer but resident.Replayed is why it cannot: Import or Rotation for a
// stamp of another epoch, Overflow for a shard whose journal no longer reaches
// back (st, partly brought forward, is then still an exact per-shard prefix).
// The caller holds stateMu, so the epoch cannot move under the cuts, and has
// made sure len(st.at) is the shard count.
func (e *Engine) since(st *stamp, apply func([]stream.Edge)) resident.Cause {
	switch {
	case st.gen != e.imports.Load():
		return resident.Import
	case st.rot != e.winRot.Load():
		return resident.Rotation
	}
	for i, s := range e.shards {
		cut, end, ok := s.journalRange(st.at[i], math.MaxUint64)
		if ok {
			for _, en := range cut {
				apply(en.batch)
			}
		}
		s.journalDone()
		if !ok {
			return resident.Overflow
		}
		st.at[i] = end
	}
	return resident.Replayed
}

// viewSource drives the engine's view pair: every read, a query as much as
// Checkpoint, MarshalBinary and ExportSince, is exact over every applied
// edge, and the view is brought current as soon as one has been applied
// since it was.
type viewSource struct{ e *Engine }

// acquire returns the published merged view with the caller registered as
// a reader; the caller must Release it when the read is done.
func (e *Engine) acquire() *view {
	v, _ := e.views.Acquire(context.Background(), viewSource{e}) // viewSource.Refresh cannot fail
	return v
}

// Current implements resident.Source. A rotation or an import changes state
// without advancing any processed counter, which is why the epoch is checked
// before the counts can vouch for the view.
func (s viewSource) Current(st *stamp) bool {
	e := s.e
	if st.rot != e.winRot.Load() || st.gen != e.imports.Load() {
		return false
	}
	for i, sh := range e.shards {
		if sh.processed.Load() != st.at[i] {
			return false
		}
	}
	return true
}

// Refresh implements resident.Source: from brought forward by journal
// replay when that is possible, a full re-merge into a fresh view otherwise.
// The state read-lock is held across the whole refresh, so the view never
// observes shard A before a rotation or an import and shard B after it.
func (s viewSource) Refresh(_ context.Context, from *view) (*view, resident.Cause, int, error) {
	e := s.e
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	cause := resident.First // without a view the pair counts its own cause
	if from != nil {
		edges := 0
		cause = e.since(&from.Stamp, func(batch []stream.Edge) {
			from.Sk.ProcessBatch(batch)
			edges += len(batch)
		})
		if cause == resident.Replayed {
			return from, cause, edges, nil
		}
	}
	return e.rebuild(), cause, 0, nil
}

// rebuild merges every shard into a fresh view — the fallback path. The
// caller holds stateMu.
func (e *Engine) rebuild() *view {
	merged := core.MustNew(e.cfg.Sketch)
	merged.SetPositionCache(e.pcache) // tables survive snapshot rebuilds
	v := &view{Sk: merged, Stamp: stamp{gen: e.imports.Load(), rot: e.winRot.Load(), at: make([]uint64, len(e.shards))}}
	for i, s := range e.shards {
		s.skMu.RLock()
		v.Stamp.at[i] = s.processed.Load()
		err := merged.Merge(s.sk)
		s.skMu.RUnlock()
		if err != nil {
			// Impossible: every shard shares e.cfg.Sketch by construction.
			panic(fmt.Sprintf("engine: shard merge failed: %v", err))
		}
	}
	return v
}
