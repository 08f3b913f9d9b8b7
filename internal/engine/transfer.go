package engine

import (
	"errors"
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
// The imported state is folded into the live shards (fold, durability.go),
// as a recovered checkpoint is: the array into shard 0, each user's counter
// into the shard that owns the user. Like a window rotation that is shard
// state changing without a journal entry, so it runs under the lock that
// orders rotations against multi-shard reads (stateMu) and moves the epoch:
// the import generation it bumps retires the resident query views, every
// remote reader's cursor and the ANN index's cursor — each names the
// generation it was read under, and a reader of another generation is never
// brought forward, only rebuilt. A read racing an import therefore answers
// from the state before it or the state after it, never from between.
//
// On a durable engine the import is immediately checkpointed: the
// imported edges exist in no local WAL record, so without a covering
// checkpoint a crash after the import ack would silently lose them. The
// ack therefore means "durable here" under the engine's sync policy.
//
// Importing the same state twice XOR-cancels it — parity state has no
// idempotent union. Callers coordinating a handoff must not retry a
// completed import against the same target (see internal/cluster). A
// windowed engine refuses it with an error wrapping errors.ErrUnsupported.
func (e *Engine) ImportSketch(data []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.cfg.Window != nil {
		return fmt.Errorf("engine: ImportSketch on a windowed engine: %w: a flat sketch carries no bucket attribution to retire", errors.ErrUnsupported)
	}
	imported, err := core.UnmarshalVOS(data)
	if err != nil {
		return err
	}
	if err := foldable("imported sketch", imported.Config(), e.cfg.Sketch); err != nil {
		return err
	}
	e.stateMu.Lock()
	e.fold(imported, 0)
	e.imports.Add(1)
	e.stateMu.Unlock()

	if e.log != nil {
		// Make the import durable before acknowledging it: the imported
		// edges are in no WAL record here, so only a checkpoint covering
		// them survives a crash.
		if _, err := e.Checkpoint(); err != nil {
			return fmt.Errorf("engine: checkpoint after import: %w", err)
		}
	}
	return nil
}
