package engine

// Sliding windows over the sharded engine.
//
// Each shard owns a core.Window instead of a bare sketch: the shard's live
// view is the window's merged sketch, which the worker writes as any shard
// sketch (core.Window keeps the current bucket implicit), and the engine's
// global snapshot merges those views exactly as before — windowing changes
// what each shard's sketch *contains*, not how shards compose. Because VOS
// merging is exact for any stream partition, the merged windowed snapshot
// is bit-identical to a single Window that consumed the whole stream.
//
// Rotation is coordinated: every shard window is created with the same
// epoch-aligned boundaries and only ever advances under the engine's
// state lock (stateMu), which snapshot refreshes and checkpointing hold in
// read mode from their first shard to their last — so no snapshot or
// checkpoint can observe shard A pre-rotation and shard B post-rotation,
// and a snapshot refresh never replays a journal across a rotation. The
// lock order is stateMu before any shard's skMu; the ingest workers take
// only skMu and are blocked per shard exactly for that shard's O(sketch)
// rotation.
//
// Time advances from three places, all funnelled through AdvanceWindowTo:
// the ingest and query paths poll the clock (one atomic load when nothing
// has expired), the linger covers idle streams, and timestamped ingest
// drives event time explicitly. The clock is Config.Clock, so a test that
// hands the engine a clock.Manual rotates deterministically.

import (
	"errors"
	"time"

	"github.com/vossketch/vos/internal/core"
)

// ErrNoWindow is returned by window operations on an engine configured
// without Config.Window.
var ErrNoWindow = errors.New("engine: no window configured")

// ErrOutsideWindow reports a query instant that predates the live window:
// the edges that would answer it have been retired and no longer exist
// anywhere in the engine. Callers should either drop the time constraint
// or widen the window.
var ErrOutsideWindow = errors.New("engine: requested time predates the window")

// WindowConfig enables sliding-window mode: the engine keeps the last
// Buckets·BucketDuration of stream time and forgets older edges in
// O(sketch) per bucket rotation.
type WindowConfig struct {
	// Buckets is B, the ring size. The window always spans the B−1 most
	// recent full buckets plus the current, still-filling one; 1 gives a
	// tumbling window. Required, ≥ 1.
	Buckets int
	// BucketDuration is the time span of one bucket — the rotation period
	// and the window's advancement granularity. Required, > 0.
	BucketDuration time.Duration
	// Now, when set, replaces Config.Clock.Now as rotation's clock, and must
	// be safe for concurrent use. Outside tests only the benchmark sets it;
	// ROADMAP item 15(c) moves the benchmark to Config.Clock and deletes it.
	Now func() time.Time
}

// WindowInfo describes the live window — see Engine.WindowInfo.
type WindowInfo struct {
	// Buckets and BucketDuration echo the configuration.
	Buckets        int
	BucketDuration time.Duration
	// Start is the inclusive start of the live window (the oldest retained
	// instant); End is the exclusive end of the current bucket — the next
	// rotation boundary. Start = End − Buckets·BucketDuration.
	Start, End time.Time
	// Rotations counts buckets retired since the engine started.
	Rotations uint64
}

// Span returns the window's total time coverage, Buckets·BucketDuration.
func (w WindowInfo) Span() time.Duration {
	return time.Duration(w.Buckets) * w.BucketDuration
}

// Contains reports whether t falls inside the live window [Start, End).
func (w WindowInfo) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// validateWindow checks the window knobs at engine construction.
func validateWindow(w *WindowConfig) error {
	if w == nil {
		return nil
	}
	if w.Buckets < 1 {
		return errors.New("engine: Window.Buckets must be at least 1")
	}
	if w.BucketDuration <= 0 {
		return errors.New("engine: Window.BucketDuration must be positive")
	}
	return nil
}

// Windowed reports whether the engine runs in sliding-window mode.
func (e *Engine) Windowed() bool { return e.cfg.Window != nil }

// WindowInfo returns the live window boundaries, advancing them first if
// the clock has crossed a rotation boundary; ok is false on an unwindowed
// engine.
func (e *Engine) WindowInfo() (WindowInfo, bool) {
	if e.cfg.Window == nil {
		return WindowInfo{}, false
	}
	e.maybeAdvance()
	end := e.winEnd.Load()
	w := e.cfg.Window
	return WindowInfo{
		Buckets:        w.Buckets,
		BucketDuration: w.BucketDuration,
		Start:          time.Unix(0, end-int64(w.Buckets)*w.BucketDuration.Nanoseconds()),
		End:            time.Unix(0, end),
		Rotations:      e.winRot.Load(),
	}, true
}

// maybeAdvance rotates the window if the clock has crossed the current
// bucket's end. The fast path — nothing expired — is one atomic load and a
// compare; it is called from the ingest and query entry points, so an idle
// or untimestamped stream still retires buckets on the clock. No-op on
// unwindowed engines.
func (e *Engine) maybeAdvance() {
	if e.cfg.Window == nil {
		return
	}
	now := e.now()
	if now.UnixNano() < e.winEnd.Load() {
		return
	}
	e.AdvanceWindowTo(now)
}

// AdvanceWindowTo rotates every shard's window forward through all bucket
// boundaries up to t, in lockstep under the state lock, and returns the
// number of boundaries crossed.
// Instants at or before the current boundary are a no-op — the window
// never moves backwards, so clock-skewed or late timestamps cannot unwind
// retired state. On an unwindowed engine it returns 0.
// Edges accepted before the call are applied first, in the bucket current
// when they were accepted.
func (e *Engine) AdvanceWindowTo(t time.Time) int {
	if e.cfg.Window == nil || t.UnixNano() < e.winEnd.Load() {
		return 0
	}
	e.Flush()
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if t.UnixNano() < e.winEnd.Load() {
		return 0 // another caller advanced past t while we waited
	}
	steps := 0
	for i, s := range e.shards {
		s.skMu.Lock()
		n := s.win.AdvanceTo(t)
		s.skMu.Unlock()
		if i == 0 {
			steps = n
		} else if n != steps {
			// Impossible: every window shares the same boundaries and only
			// advances here, under stateMu.
			panic("engine: shard windows rotated out of lockstep")
		}
	}
	if steps > 0 {
		e.winRot.Add(uint64(steps))
		e.winEnd.Store(e.shards[0].win.End().UnixNano())
	}
	return steps
}

// windowSnapshot builds the cross-shard window state for a checkpoint:
// bucket k of the result is the exact merge of bucket k of every shard
// window. Callers hold walMu (no producers) and must have flushed; the state
// read-lock keeps rotation out for the duration, so the buckets of different
// shards are aligned.
func (e *Engine) windowSnapshot() (*core.Window, error) {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	w := e.cfg.Window
	out, err := core.NewWindowAt(e.cfg.Sketch, w.Buckets, w.BucketDuration, time.Unix(0, e.winEnd.Load()))
	if err != nil {
		return nil, err
	}
	for _, s := range e.shards {
		s.skMu.RLock()
		for k := 0; k < w.Buckets && err == nil; k++ {
			err = out.MergeBucket(k, s.win.Bucket(k))
		}
		s.skMu.RUnlock()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
