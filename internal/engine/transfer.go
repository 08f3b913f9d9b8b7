package engine

import (
	"fmt"

	"github.com/vossketch/vos/internal/core"
)

// ImportSketch merges a serialized sketch (core.VOS wire format, as
// produced by MarshalBinary on another engine) into this engine's state.
// It is the receiving half of a cluster shard handoff: the source node
// exports its engine state, the target imports it, and because VOS state
// is pure parity the target's merged sketch afterwards equals a single
// engine that consumed both streams.
//
// The imported state lands in the engine's recovery base — the same slot
// a checkpoint restores into — so shards keep holding only their own
// deltas and every query path picks it up through the existing
// base-merge. Each import publishes a fresh immutable base sketch (old
// base XOR import), so concurrent readers are never exposed to a
// half-merged array.
//
// On a durable engine the import is immediately checkpointed: the
// imported edges exist in no local WAL record, so without a covering
// checkpoint a crash after the import ack would silently lose them. The
// ack therefore means "durable here" under the engine's sync policy.
//
// Importing the same state twice XOR-cancels it — parity state has no
// idempotent union. Callers coordinating a handoff must not retry a
// completed import against the same target (see internal/cluster).
func (e *Engine) ImportSketch(data []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.cfg.Window != nil {
		return fmt.Errorf("engine: ImportSketch is not supported on windowed engines: a flat sketch carries no bucket attribution to retire")
	}
	imported, err := core.UnmarshalVOS(data)
	if err != nil {
		return err
	}
	if imported.Config().Family != e.cfg.Sketch.Family {
		return fmt.Errorf("%w: imported sketch uses the %v hash family, engine is configured for %v",
			core.ErrFamilyMismatch, imported.Config().Family, e.cfg.Sketch.Family)
	}
	if imported.Config() != e.cfg.Sketch {
		return fmt.Errorf("engine: imported sketch config %+v does not match engine config %+v",
			imported.Config(), e.cfg.Sketch)
	}
	// snapMu serializes concurrent imports (the read-merge-publish below
	// must not interleave). Publishing the new base is also what retires
	// both resident query views: each is stamped with the base it was
	// merged from, acquire compares that stamp under this same mutex, and a
	// view of another base is never replayed, only re-merged — so no reader
	// can pair a stale snapshot decision with the new state.
	e.snapMu.Lock()
	merged := core.MustNew(e.cfg.Sketch)
	if old := e.base.Load(); old != nil {
		if err := merged.Merge(old); err != nil {
			e.snapMu.Unlock()
			panic(fmt.Sprintf("engine: base merge failed: %v", err))
		}
	}
	if err := merged.Merge(imported); err != nil {
		e.snapMu.Unlock()
		return err
	}
	e.base.Store(merged)
	e.snapMu.Unlock()

	if e.log != nil {
		// Make the import durable before acknowledging it: the imported
		// edges are in no WAL record here, so only a checkpoint covering
		// the new base survives a crash.
		if _, err := e.Checkpoint(); err != nil {
			return fmt.Errorf("engine: checkpoint after import: %w", err)
		}
	}
	return nil
}
