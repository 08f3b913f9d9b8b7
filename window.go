package vos

// Sliding-window similarity. VOS state is a pure XOR of its edge stream,
// so a sliding window falls out structurally: serve queries from the
// XOR-merge of B time buckets, land each edge in that merged view alone
// (the current bucket is what it gained since the last rotation), and
// retire the oldest bucket by XOR-ing it back out — O(sketch) per
// rotation, O(1) per edge, no per-edge expiry tracking. "Who is similar
// to u over the last hour" is then an ordinary query against the merged
// view, and deletions inside the window still cost nothing.
//
// Three shapes, mirroring the unwindowed lineup:
//
//   - WindowedSketch (NewWindowed) is the single-threaded bucket ring;
//   - EngineConfig.Window puts the sharded Engine in window mode, with
//     rotation coordinated across shards and windowed checkpoints;
//   - the server/client layers carry the window over the wire: timestamped
//     ingest advances event time, GET /v1/stats reports window_seconds,
//     and a query instant older than the window answers ErrOutsideWindow.

import (
	"time"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/engine"
)

// WindowedSketch is a sliding-window VOS: the XOR-merge of buckets
// time-bucketed sub-sketches, the live view of the last
// buckets·bucketDuration of stream time. It holds buckets+1 arrays (see
// core.Window); a rotation costs a few array passes plus a walk of the live
// counters, whatever the edge count. Like Sketch it is NOT safe for
// concurrent use — wire EngineConfig.Window for a concurrent, sharded
// window. Rotation is explicit (Rotate / AdvanceTo), so callers own the
// clock; the Engine adds the wall-clock and event-time plumbing on top.
//
// The merged view (Merged) is an ordinary *Sketch: Query, TopK, the
// position and recovered-sketch caches, and MarshalBinary all apply to it
// unchanged. The parity guarantee matches the unwindowed sketch's: after
// any sequence of ingests and rotations, the merged view serializes
// bit-identically to a fresh Sketch built from only the in-window edges.
type WindowedSketch = core.Window

// NewWindowed creates an empty sliding-window sketch of buckets ring
// slots of bucketDuration each, with the current bucket covering now
// (boundaries are aligned to multiples of bucketDuration since the Unix
// epoch, so independently created windows rotate on the same instants).
// buckets must be ≥ 1 — buckets == 1 is a tumbling window — and
// bucketDuration must be positive.
func NewWindowed(cfg Config, buckets int, bucketDuration time.Duration) (*WindowedSketch, error) {
	return core.NewWindow(cfg, buckets, bucketDuration, time.Now())
}

// NewWindowedAt is NewWindowed with an explicit current-bucket end
// instant, taken verbatim — for deterministic tests and for restoring
// persisted boundaries.
func NewWindowedAt(cfg Config, buckets int, bucketDuration time.Duration, end time.Time) (*WindowedSketch, error) {
	return core.NewWindowAt(cfg, buckets, bucketDuration, end)
}

// UnmarshalWindowed decodes a window serialized with
// WindowedSketch.MarshalBinary, rebuilding the merged view from the
// persisted buckets.
func UnmarshalWindowed(data []byte) (*WindowedSketch, error) {
	return core.UnmarshalWindow(data)
}

// WindowConfig is EngineConfig.Window: setting it puts the Engine in
// sliding-window mode. Each shard keeps its own bucket ring; rotation is
// coordinated across shards under an engine-level lock so query snapshots
// and checkpoints never observe half a rotation, and checkpoints persist
// per-bucket state so a recovered engine keeps retiring buckets on the
// boundaries it was persisted with.
type WindowConfig = engine.WindowConfig

// WindowInfo describes an engine's live window: bucket count and
// duration, the inclusive start and exclusive end of the retained time
// range, and the rotation count. From Engine.WindowInfo or the Windowed
// service capability.
type WindowInfo = engine.WindowInfo

// ErrNoWindow is returned by window operations (the Windowed capability's
// methods) on a service whose backing engine has no window configured.
var ErrNoWindow = engine.ErrNoWindow

// ErrOutsideWindow reports a query instant that predates the live window:
// the edges that would answer it have been retired and exist nowhere in
// the engine. Remote callers see it as the "outside_window" envelope code,
// which the client maps back onto this sentinel.
var ErrOutsideWindow = engine.ErrOutsideWindow
