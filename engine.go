package vos

import (
	"github.com/vossketch/vos/internal/engine"
	"github.com/vossketch/vos/internal/metrics"
	"github.com/vossketch/vos/internal/poscache"
	"github.com/vossketch/vos/internal/wal"
)

// Engine is the sharded, pipelined ingestion engine: N independent Sketch
// shards with identical Config, one ingest goroutine per shard fed by
// buffered batch channels, and an exact merged-snapshot query path.
//
// Use it when ingest throughput must scale past one core. Because VOS
// merging is exact for any partition of the stream, a K-shard Engine
// returns (after Flush) bit-identical estimates to a single Sketch that
// consumed the whole stream — sharding costs no accuracy. It is the one
// concurrent shape: Shards: 1 is a thread-safe sketch, EngineConfig.Window
// makes it a sliding window, and NewEngineService serves it.
// For the offline equivalent, see PartitionByUser plus Sketch.Merge.
//
// All methods are safe for concurrent use, with one lifecycle rule: no
// Process/ProcessBatch call may start after Close has begun. Once Close
// begins, writes and the context-aware query methods return ErrClosed.
// Every pair read takes one path: acquire the merged view, query it,
// release it.
//
// See internal/engine for the full model.
type Engine = engine.Engine

// EngineConfig parameterises an Engine: the per-shard sketch Config plus
// shard count, batch size, the clock its timers run on, and the position
// cache size. Zero values select defaults (Shards = GOMAXPROCS, BatchSize =
// 256, Clock = wall time, PositionCacheUsers = 512; negative disables
// position caching). Each shard queues up to 8,192 edges, rounded up to
// whole batches, before Process blocks. Setting Window puts the engine in
// sliding-window mode (see WindowConfig); setting Durability makes it
// durable (see DurabilityConfig) — the two compose.
type EngineConfig = engine.Config

// PositionCacheStats is a counter snapshot (hits, misses, evictions, fill)
// of the engine's shared position-table cache, from
// Engine.PositionCacheStats. A low hit rate on a serving workload means
// EngineConfig.PositionCacheUsers is sized below the hot user set.
type PositionCacheStats = poscache.Stats

// ShardStat is one engine shard's health snapshot (counters, backlog, β).
type ShardStat = metrics.ShardStat

// ANNConfig enables the engine's approximate top-K index: a maintained
// banded-LSH index over packed recovered sketches, probed by
// Engine.TopKApprox instead of scanning every user. Bands (b) and Rows (r)
// trade recall against candidate count along the S-curve
// 1 − (1 − p^r)^b, where p is the fraction of recovered-sketch bits two
// users agree on; zero fields select defaults (Bands 64, Rows 16,
// RebandBudget 16384). Set it on EngineConfig.ANN.
type ANNConfig = engine.ANNConfig

// ANNStats is a health snapshot of the approximate top-K index (occupancy,
// dirty backlog, maintenance counters), from Engine.ANNStats.
type ANNStats = engine.ANNStats

// SnapshotStats counts how a merged query snapshot has been kept current
// (journal replays against full rebuilds by cause) — whether reads after
// writes take the cheap path. Engine.SnapshotStats reports the engine's
// own; the cluster gateway reports the same object for its merged views.
type SnapshotStats = engine.SnapshotStats

// SketchDelta is Engine.ExportSince's answer: the edges applied since a
// cursor, or the whole serialized sketch, with the cursor to send next.
type SketchDelta = engine.Delta

// SketchSpan is where one write landed, in SketchDelta cursors: the state
// just before its edges and the state with them and nothing else
// (Engine.ProcessBatchSpan); empty when another write came between.
type SketchSpan = engine.Span

// Why a SketchDelta answered a cursor with the full sketch (its Fallback
// field): the cursor is older than the engine's bounded journals reach, or
// from another epoch — the engine restarted, imported state or rotated its
// window since.
const (
	SketchFallbackJournal = engine.FallbackJournal
	SketchFallbackEpoch   = engine.FallbackEpoch
)

// ErrBadCursor is returned by Engine.ExportSince (and the StateSync
// service extension) for a cursor no engine ever issued.
var ErrBadCursor = engine.ErrBadCursor

// ErrNoANN is returned by Engine.TopKApprox (and the ApproxTopK service
// extension) when the backing engine was built without EngineConfig.ANN.
var ErrNoANN = engine.ErrNoANN

// NewEngine creates and starts a sharded ingestion engine. With
// EngineConfig.Durability set it behaves like OpenEngine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// MustNewEngine is NewEngine for static configurations; it panics on error.
func MustNewEngine(cfg EngineConfig) *Engine { return engine.MustNew(cfg) }

// DurabilityConfig enables the engine's write-ahead log and checkpointing:
// accepted edges are appended to a segmented, CRC-checksummed WAL under
// Dir before they are routed to the shards, Engine.Checkpoint atomically
// persists the merged sketch alongside the WAL position it covers, and
// OpenEngine recovers by loading the newest valid checkpoint and replaying
// only the WAL suffix. See the README's "Durability & recovery" section.
type DurabilityConfig = engine.DurabilityConfig

// SyncPolicy selects when WAL appends are fsynced: SyncEveryBatch (an
// acknowledged batch is durable), SyncEveryN (bounded loss window), or
// SyncOff (page-cache durability only).
type SyncPolicy = wal.SyncPolicy

// WAL sync policies for DurabilityConfig.Sync.
const (
	// SyncEveryBatch fsyncs after every accepted batch — the default and
	// safest policy: an acknowledged write survives a crash.
	SyncEveryBatch = wal.SyncEveryBatch
	// SyncEveryN fsyncs once at least DurabilityConfig.SyncEveryN edges
	// have been appended since the last sync; a crash loses at most that
	// many acknowledged edges.
	SyncEveryN = wal.SyncEveryN
	// SyncOff never fsyncs on the append path; durability is whatever the
	// OS page cache survives. Fastest, for workloads that can re-ingest.
	SyncOff = wal.SyncOff
)

// ErrEngineNoDurability is returned by Engine.Checkpoint on a memory-only
// engine and by OpenEngine when no directory is configured.
var ErrEngineNoDurability = engine.ErrNoDurability

// OpenEngine starts a durable engine backed by dir: it loads the newest
// valid checkpoint (if any), replays the WAL suffix past it, and then
// accepts new edges — so a restarted service resumes from disk instead of
// re-consuming the graph stream from origin. An empty or absent directory
// starts fresh. cfg.Durability, if non-nil, supplies the sync policy and
// segment size; its Dir field is overridden by dir.
func OpenEngine(dir string, cfg EngineConfig) (*Engine, error) {
	d := DurabilityConfig{}
	if cfg.Durability != nil {
		d = *cfg.Durability
	}
	d.Dir = dir
	cfg.Durability = &d
	return engine.Open(cfg)
}
