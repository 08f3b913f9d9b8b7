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
	// Publishing the new base is also what retires both resident query
	// views and every remote reader's cursor: each names the base it was
	// merged from, and a view or cursor of another base is never replayed,
	// only rebuilt — so no reader can pair a stale snapshot decision with
	// the new state.
	e.importMu.Lock()
	next := &baseSketch{sk: core.MustNew(e.cfg.Sketch), gen: 1}
	if old := e.base.Load(); old != nil {
		next.gen = old.gen + 1
		if err := next.sk.Merge(old.sk); err != nil {
			e.importMu.Unlock()
			panic(fmt.Sprintf("engine: base merge failed: %v", err))
		}
	}
	if err := next.sk.Merge(imported); err != nil {
		e.importMu.Unlock()
		return err
	}
	e.base.Store(next)
	e.importMu.Unlock()

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
