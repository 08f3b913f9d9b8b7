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
// The window is a mode of the Engine, from Shards: 1 up:
//
//   - EngineConfig.Window gives every shard a bucket ring, with rotation
//     coordinated across shards and windowed checkpoints;
//   - the server/client layers carry the window over the wire: timestamped
//     ingest advances event time, GET /v1/stats reports window_seconds,
//     and a query instant older than the window answers ErrOutsideWindow.

import "github.com/vossketch/vos/internal/engine"

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
