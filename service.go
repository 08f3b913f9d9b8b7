package vos

import (
	"context"
	"time"

	"github.com/vossketch/vos/internal/engine"
)

// SimilarityService is the context-aware serving interface of the module:
// one contract for "ingest a dynamic graph stream, answer similarity
// queries over it" that every deployment shape satisfies —
//
//   - NewEngineService wraps the in-process Engine (one shard or many,
//     optionally windowed, durable or with the top-K index),
//   - package client implements it over the versioned HTTP API that
//     package server exposes, so swapping an in-process engine for a
//     remote vosd daemon is a one-constructor change.
//
// All methods honour ctx: a cancelled or expired context aborts the call
// with ctx.Err() (for TopK the cancellation is cooperative — it actually
// stops the candidate scan mid-way, not just the return).
// Lifecycle errors are typed: ErrClosed after the backing engine has shut
// down, ErrQueryUnavailable for query paths the current state cannot serve.
type SimilarityService interface {
	// Ingest folds a slice of stream elements into the sketch state.
	// Implementations may batch internally; when Ingest returns nil the
	// edges are accepted (remote implementations may still be buffering —
	// see client.Client.Flush). ctx is checked on entry only, and an
	// ingest that has started runs to completion even if ctx is cancelled
	// mid-call: XOR updates are not idempotent, so a slice applied in part
	// is a write the caller can neither retry nor assume lost; a durable
	// engine has also already logged the batch, and abandoning the shard
	// hand-off would desynchronise checkpoints from the WAL. Engine
	// backpressure (full shard queues) therefore blocks past cancellation;
	// bound it with queue sizing, not ctx. Returns ErrClosed once the
	// backing engine has shut down — the edges were NOT accepted.
	//
	// The slice is the caller's again when the call returns: implementations
	// must not keep it — what they buffer past the call they copy — so a
	// caller may decode the next batch into the same memory (package server
	// and the UDP receiver do). TestIngestDoesNotKeepTheSlice holds every
	// implementation in the module to it.
	Ingest(ctx context.Context, edges []Edge) error
	// Similarity estimates the similarity of users u and v. Returns
	// ErrClosed once the backing engine has shut down and
	// ErrQueryUnavailable when the query path cannot answer in the
	// engine's current state; both mean no estimate was produced —
	// there are no silent zero answers.
	Similarity(ctx context.Context, u, v User) (Estimate, error)
	// TopK returns the n candidates most similar to u, best first.
	// Cancelling ctx aborts the candidate scan mid-way with ctx.Err();
	// ErrClosed and ErrQueryUnavailable as for Similarity.
	TopK(ctx context.Context, u User, candidates []User, n int) ([]TopKResult, error)
	// Cardinality returns n_u, the tracked item count of user u (over
	// the live window on windowed engines). ErrClosed after shutdown.
	Cardinality(ctx context.Context, u User) (int64, error)
	// Stats summarises the sketch state backing the service (window
	// metadata included on windowed engines). ErrClosed after shutdown.
	Stats(ctx context.Context) (Stats, error)
}

// Checkpointer is the optional durability extension of SimilarityService:
// services backed by a durable Engine (and remote clients talking to one)
// can persist a checkpoint on demand. POST /v1/checkpoint probes for it.
type Checkpointer interface {
	Checkpoint(ctx context.Context) (uint64, error)
}

// Windowed is the optional sliding-window extension of SimilarityService:
// services backed by a windowed Engine report the live window's
// boundaries and accept event time. The server probes for it to honour
// timestamped ingest (the ts fields of POST /v1/edges advance the window)
// and to answer "outside_window" when a query instant predates the
// retained range. Both methods return ErrNoWindow when the backing engine
// has no window configured, and ErrClosed once it has shut down.
type Windowed interface {
	// WindowInfo returns the live window boundaries, advancing them first
	// if the clock has crossed a rotation boundary.
	WindowInfo(ctx context.Context) (WindowInfo, error)
	// AdvanceWindow drives event time: it rotates the window through every
	// bucket boundary up to t. Instants at or before the current boundary
	// are a no-op — the window never moves backwards, so clock-skewed
	// timestamps cannot unwind retired state.
	AdvanceWindow(ctx context.Context, t time.Time) error
}

// ApproxTopK is the optional approximate top-K extension of
// SimilarityService: services backed by an Engine with EngineConfig.ANN
// answer candidates-free top-K probes from the banded-LSH index instead of
// scanning a caller-supplied candidate list. The server probes for it to
// serve POST /v1/topk with mode "ann"; package client implements it over
// that route. TopKApprox returns ErrNoANN when the backing engine has no
// ANN index configured, and ErrClosed once it has shut down.
//
// The approximation is in candidate generation only: every returned
// estimate is computed exactly against the current state and ranked with
// the same total order as TopK, so the result is a subset-ordered prefix
// of the exact scan. Recall depends on the band parameters and the
// workload's similarity structure — see the README's "Approximate top-K"
// section; TestTopKApproxSubsetOrderedPrefix in internal/engine pins the
// ordering contract and the benchmark's lsh.recall_at_10 row the recall.
type ApproxTopK interface {
	TopKApprox(ctx context.Context, u User, n int) ([]TopKResult, error)
}

// StateExporter is the optional state-transfer extension of
// SimilarityService: implementations can serialize their complete sketch
// state (the core.VOS wire format, as Unmarshal reads). It is the source
// half of a cluster shard handoff and what the gateway merges — pair
// estimates depend on the merged array's global fill, so a cluster query
// is answered from the XOR-merge of every backend's state (kept current by
// StateSync where the backend offers it, gathered in full through this
// interface where it does not). GET /v1/cluster/sketch probes for it.
type StateExporter interface {
	// ExportSketch returns the serialized state covering every edge
	// acknowledged before the call.
	ExportSketch(ctx context.Context) ([]byte, error)
}

// StateSync is the whole state-transfer protocol of a service whose state
// is pure parity: the full export, the change since a cursor for readers
// that keep their own merged view (the cluster gateway: it holds a cursor
// from the last answer, fetches the change, not the state, and folds in its
// own writes), a write that says where it landed, and the import that
// receives a shard handoff. GET /v1/cluster/sketch, POST /v1/edges and POST
// /v1/cluster/import probe for it; a service with only StateExporter is
// exported in full every time — never wrong, only slow.
type StateSync interface {
	StateExporter
	// ExportSince returns the edges applied since the state the cursor
	// names — or the full serialized state when since is empty or no journal
	// connects it to the present — covering every edge acknowledged before
	// the call, with the cursor naming the state the caller then holds. The
	// call changes nothing in the service, so it is safe to repeat.
	// ErrBadCursor for a since that is not a cursor.
	ExportSince(ctx context.Context, since string) (SketchDelta, error)
	// IngestSpan is Ingest that also says where the edges landed (empty when
	// that cannot be told). A non-nil encoded is the binary stream body the
	// edges were decoded from, less its magic: a durable engine logs those
	// bytes instead of encoding the edges again. Nil encodes them. The bytes
	// are the caller's again when the call returns, as the slice is.
	IngestSpan(ctx context.Context, edges []Edge, encoded []byte) (SketchSpan, error)
	// ImportSketch XOR-merges a serialized sketch into the state (and, on a
	// durable engine, checkpoints before acknowledging — the imported edges
	// exist in no local WAL record). Importing the same state twice cancels
	// it; callers must not retry a completed import against the same target.
	ImportSketch(ctx context.Context, data []byte) error
}

// PartialTopK is the optional degraded-read extension of
// SimilarityService: TopKPartial answers a top-K probe even when part of
// the backing state is unreachable (a draining or crashed cluster
// backend), reporting completeness alongside the results. complete=false
// means the ranking covers only the reachable portion of the state; the
// estimates in it are still computed exactly over that portion. The
// server probes for it on POST /v1/topk and surfaces incompleteness as
// the X-Vos-Partial response header.
type PartialTopK interface {
	TopKPartial(ctx context.Context, u User, candidates []User, n int) ([]TopKResult, bool, error)
}

// StatsReporter is the optional observability extension of
// SimilarityService that GET /v1/stats probes for. SnapshotStats reports how
// a service that answers reads from a resident merged snapshot (an Engine
// over its shards, the cluster gateway over its backends) has kept it
// current; /v1/stats carries it as its `snapshot` object. ANNStats reports
// how an approximate top-K index (an Engine with EngineConfig.ANN) has
// followed the stream — single bands re-keyed from the shard journals
// against whole users re-banded, and what is still owed; ok is false when no
// index is configured (always, on the gateway), and /v1/stats then leaves
// out its `ann` object.
type StatsReporter interface {
	SnapshotStats() SnapshotStats
	ANNStats() (st ANNStats, ok bool)
}

// ErrQueryUnavailable is returned by query paths that cannot answer in the
// serving state behind them — today the cluster gateway with no backend
// reachable, and package client for the server's "unavailable" and
// "draining" codes. No estimate was produced; retry later or elsewhere.
var ErrQueryUnavailable = engine.ErrQueryUnavailable

// ErrClosed is returned by every SimilarityService method once the backing
// engine has been closed, and by Engine writes and context-aware queries
// once Engine.Close has begun.
var ErrClosed = engine.ErrClosed

// engineService adapts *Engine to SimilarityService. Reads flush first —
// read-your-writes: an accepted edge may still sit in a producer buffer or
// shard queue, and the engine's merged snapshot only covers applied edges,
// so querying without the flush could silently miss acknowledged writes
// (the exact silent-zero the typed service contract exists to remove).
type engineService struct {
	e *Engine
}

// NewEngineService wraps a sharded Engine in the SimilarityService
// interface. Queries flush the engine first (read-your-writes); see
// SimilarityService for the context and error contract. The engine's
// lifecycle stays with the caller — closing the engine makes every method
// return ErrClosed.
func NewEngineService(e *Engine) SimilarityService { return &engineService{e: e} }

func (s *engineService) Ingest(ctx context.Context, edges []Edge) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.e.ProcessBatch(edges)
}

func (s *engineService) Similarity(ctx context.Context, u, v User) (Estimate, error) {
	if err := s.flush(ctx); err != nil {
		return Estimate{}, err
	}
	return s.e.QueryContext(ctx, u, v)
}

func (s *engineService) TopK(ctx context.Context, u User, candidates []User, n int) ([]TopKResult, error) {
	if err := s.flush(ctx); err != nil {
		return nil, err
	}
	return s.e.TopKContext(ctx, u, candidates, n)
}

// TopKApprox implements ApproxTopK; ErrNoANN on an engine without
// EngineConfig.ANN. Like the other reads it flushes first, so the probe's
// maintenance pass observes every acknowledged write.
func (s *engineService) TopKApprox(ctx context.Context, u User, n int) ([]TopKResult, error) {
	if err := s.flush(ctx); err != nil {
		return nil, err
	}
	return s.e.TopKApproxContext(ctx, u, n)
}

func (s *engineService) Cardinality(ctx context.Context, u User) (int64, error) {
	if err := s.flush(ctx); err != nil {
		return 0, err
	}
	return s.e.CardinalityContext(ctx, u)
}

func (s *engineService) Stats(ctx context.Context) (Stats, error) {
	if err := s.flush(ctx); err != nil {
		return Stats{}, err
	}
	return s.e.Stats(), nil
}

// SnapshotStats implements StatsReporter.
func (s *engineService) SnapshotStats() SnapshotStats { return s.e.SnapshotStats() }

// ANNStats implements StatsReporter.
func (s *engineService) ANNStats() (ANNStats, bool) { return s.e.ANNStats() }

// Checkpoint implements Checkpointer; ErrEngineNoDurability on a
// memory-only engine.
func (s *engineService) Checkpoint(ctx context.Context) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.e.Checkpoint()
}

// ExportSketch implements StateExporter: the engine's merged state over
// every acknowledged edge (MarshalBinary flushes and merges exactly).
func (s *engineService) ExportSketch(ctx context.Context) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.e.Closed() {
		return nil, ErrClosed
	}
	return s.e.MarshalBinary()
}

// ExportSince implements StateSync (see Engine.ExportSince).
func (s *engineService) ExportSince(ctx context.Context, since string) (SketchDelta, error) {
	if err := ctx.Err(); err != nil {
		return SketchDelta{}, err
	}
	return s.e.ExportSince(since)
}

// IngestSpan implements StateSync (see Engine.ProcessBatchSpan).
func (s *engineService) IngestSpan(ctx context.Context, edges []Edge, encoded []byte) (SketchSpan, error) {
	if err := ctx.Err(); err != nil {
		return SketchSpan{}, err
	}
	return s.e.ProcessBatchSpan(edges, encoded)
}

// ImportSketch implements StateSync (see Engine.ImportSketch for the
// merge, durability, and double-import semantics).
func (s *engineService) ImportSketch(ctx context.Context, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.e.ImportSketch(data)
}

// WindowInfo implements Windowed; ErrNoWindow on an unwindowed engine.
func (s *engineService) WindowInfo(ctx context.Context) (WindowInfo, error) {
	if err := ctx.Err(); err != nil {
		return WindowInfo{}, err
	}
	if s.e.Closed() {
		return WindowInfo{}, ErrClosed
	}
	info, ok := s.e.WindowInfo()
	if !ok {
		return WindowInfo{}, ErrNoWindow
	}
	return info, nil
}

// AdvanceWindow implements Windowed; ErrNoWindow on an unwindowed engine.
func (s *engineService) AdvanceWindow(ctx context.Context, t time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.e.Closed() {
		return ErrClosed
	}
	if !s.e.Windowed() {
		return ErrNoWindow
	}
	s.e.AdvanceWindowTo(t)
	return nil
}

// flush gives reads read-your-writes and converts the lifecycle states
// into the typed errors the interface promises. The closed check is
// best-effort ordering, not a guard: Engine.Flush is itself safe against
// a racing Close (it returns once Close has begun, whose own drain
// applies everything buffered), and the query that follows either sees
// the engine's final state or reports ErrClosed from its own check.
func (s *engineService) flush(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.e.Closed() {
		return ErrClosed
	}
	s.e.Flush()
	return nil
}
