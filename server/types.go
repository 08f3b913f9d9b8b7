package server

import (
	"fmt"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/metrics"
)

// Wire types of the /v1/ API. They are defined here — in the server
// package — as the single canonical description of the protocol; package
// client imports them rather than maintaining a parallel copy, so the two
// ends of the wire cannot drift.
//
// Estimates travel as full float64 JSON numbers. encoding/json emits the
// shortest decimal that round-trips the exact float64, so a decoded
// estimate is bit-identical to the one the engine produced — the property
// the client↔server parity tests pin.
//
// EstimateJSON, ANNStatsJSON, SnapshotStatsJSON and UDPStatsJSON differ from
// the types they carry only in their tags, so each converts by Go struct
// conversion: a field added on one side only stops this package compiling
// instead of travelling as a silent zero.

// EdgeJSON is one stream element on the wire: {"user":u,"item":i,"op":"+"}.
// Op is "+" (insert, the default when omitted) or "-" (delete).
//
// Ts optionally carries the element's event time as fractional Unix
// seconds. Against a windowed service the largest timestamp of a batch
// advances the sliding window (rotating buckets the stream time has moved
// past) before the batch is ingested; every edge then lands in the
// current bucket, so late (clock-skewed) timestamps are accepted and
// simply attributed to the present. Unwindowed services ignore Ts.
type EdgeJSON struct {
	User uint64  `json:"user"`
	Item uint64  `json:"item"`
	Op   string  `json:"op,omitempty"`
	Ts   float64 `json:"ts,omitempty"`
}

// Edge converts to the stream element type. It rejects unknown ops.
func (e EdgeJSON) Edge() (vos.Edge, error) {
	op := vos.Insert
	switch e.Op {
	case "+", "":
	case "-":
		op = vos.Delete
	default:
		return vos.Edge{}, fmt.Errorf(`op must be "+" or "-", got %q`, e.Op)
	}
	return vos.Edge{User: vos.User(e.User), Item: vos.Item(e.Item), Op: op}, nil
}

// IngestResponse acknowledges POST /v1/edges.
type IngestResponse struct {
	// Accepted is the number of edges folded into the service.
	Accepted int `json:"accepted"`
}

// EstimateJSON is vos.Estimate on the wire, every field included so a
// remote caller sees exactly what an in-process caller would.
type EstimateJSON struct {
	Common              float64 `json:"common"`
	CommonClamped       float64 `json:"common_clamped"`
	Jaccard             float64 `json:"jaccard"`
	SymmetricDifference float64 `json:"symmetric_difference"`
	Alpha               float64 `json:"alpha"`
	Beta                float64 `json:"beta"`
	CardinalityU        int64   `json:"cardinality_u"`
	CardinalityV        int64   `json:"cardinality_v"`
	Saturated           bool    `json:"saturated,omitempty"`
}

// Estimate converts back to the engine type.
func (e EstimateJSON) Estimate() vos.Estimate {
	return vos.Estimate(e)
}

// EstimateToWire converts an engine estimate to its wire form.
func EstimateToWire(e vos.Estimate) EstimateJSON {
	return EstimateJSON(e)
}

// TopKRequest is the POST /v1/topk body. At, when nonzero, asserts the
// query is about that instant (fractional Unix seconds): a windowed
// service answers from the live window only if At is inside it and
// replies "outside_window" otherwise; an unwindowed service rejects At
// with "bad_request" (it has no notion of retained time).
//
// Mode selects the scan: "" or "exact" (the default) ranks the supplied
// Candidates exactly; "ann" is candidates-free — the service generates
// candidates from its approximate top-K index, so Candidates must be
// empty ("bad_request" otherwise). A service without the index answers
// mode "ann" with 501 "unsupported"; any other mode is "bad_request".
type TopKRequest struct {
	User       uint64   `json:"user"`
	Candidates []uint64 `json:"candidates"`
	N          int      `json:"n"`
	At         float64  `json:"at,omitempty"`
	Mode       string   `json:"mode,omitempty"`
}

// TopKResultJSON is one ranked candidate of the /v1/topk response.
type TopKResultJSON struct {
	User     uint64       `json:"user"`
	Estimate EstimateJSON `json:"estimate"`
}

// CardinalityResponse is the GET /v1/cardinality answer.
type CardinalityResponse struct {
	User        uint64 `json:"user"`
	Cardinality int64  `json:"cardinality"`
}

// StatsResponse is the GET /v1/stats answer, vos.Stats on the wire.
// WindowSeconds and WindowBuckets are present (nonzero) only when the
// backing service runs in sliding-window mode; the stats then describe
// the live window's state, not the whole stream's.
type StatsResponse struct {
	MemoryBits    uint64  `json:"memory_bits"`
	SketchBits    int     `json:"sketch_bits"`
	OnesCount     uint64  `json:"ones_count"`
	Beta          float64 `json:"beta"`
	Users         int     `json:"users"`
	MemoryBytes   uint64  `json:"memory_bytes"`
	WindowSeconds float64 `json:"window_seconds,omitempty"`
	WindowBuckets int     `json:"window_buckets,omitempty"`
	// HashFamily is the sketch's position-generation backend ("classic" or
	// "fast"); see vos.HashFamily.
	HashFamily string `json:"hash_family"`
	// UDP is the UDP ingest plane's counter snapshot, present only when
	// the serving process runs a datagram listener (vosd -udp-listen).
	UDP *UDPStatsJSON `json:"udp,omitempty"`
	// Snapshot reports how the service's merged query snapshot has been
	// kept current, present when the backing service is a
	// vos.SnapshotReporter (an in-process Engine, or the cluster gateway).
	Snapshot *SnapshotStatsJSON `json:"snapshot,omitempty"`
	// ANN reports the approximate top-K index's occupancy and maintenance,
	// present when the backing service is a vos.ANNReporter with an index
	// configured (vosd -ann).
	ANN *ANNStatsJSON `json:"ann,omitempty"`
}

// ANNStatsJSON is vos.ANNStats on the wire. A serving index that follows
// its writes shows band_rekeys growing with them while rebands grows only
// with new users, rotations and imports; journal_fallbacks and
// spilled_users growing means probes come further apart than a shard
// journal holds, and dirty_backlog not returning to zero that the reband
// budget is too small for the churn.
type ANNStatsJSON struct {
	Indexed          int    `json:"indexed"`
	DirtyBacklog     int    `json:"dirty_backlog"`
	Entries          int    `json:"entries"`
	Rebands          uint64 `json:"rebands"`
	Removals         uint64 `json:"removals"`
	Probes           uint64 `json:"probes"`
	Rotations        uint64 `json:"rotations"`
	BandRekeys       uint64 `json:"band_rekeys"`
	JournalFallbacks uint64 `json:"journal_fallbacks"`
	SpilledUsers     uint64 `json:"spilled_users"`
	ProbeReuses      uint64 `json:"probe_reuses"`
}

// ANNStatsToWire converts the counters to their wire form.
func ANNStatsToWire(s vos.ANNStats) ANNStatsJSON {
	return ANNStatsJSON(s)
}

// SnapshotStatsJSON is vos.SnapshotStats on the wire: refreshes of the
// merged query snapshot by path. A serving engine or gateway shows replays
// growing with its reads-after-writes and the rebuild counters standing
// still. vosd and vosgw send the same object; the fields only the other
// tier counts stay zero.
type SnapshotStatsJSON struct {
	Replays          uint64 `json:"replays"`
	ReplayedEdges    uint64 `json:"replayed_edges"`
	RebuildsFirst    uint64 `json:"rebuilds_first"`
	RebuildsOverflow uint64 `json:"rebuilds_overflow"`
	RebuildsRotation uint64 `json:"rebuilds_rotation"`
	RebuildsImport   uint64 `json:"rebuilds_import"`
	RebuildsBusy     uint64 `json:"rebuilds_busy"`
	RebuildsEpoch    uint64 `json:"rebuilds_epoch"`
	RebuildsRing     uint64 `json:"rebuilds_ring"`
	RebuildsNoDelta  uint64 `json:"rebuilds_no_delta"`
	JournalOverflows uint64 `json:"journal_overflows"`
	GatheredBytes    uint64 `json:"gathered_bytes"`
}

// SnapshotStatsToWire converts the counters to their wire form.
func SnapshotStatsToWire(s vos.SnapshotStats) SnapshotStatsJSON {
	return SnapshotStatsJSON(s)
}

// UDPStatsJSON is metrics.UDPStats on the wire: the datagram ingest
// plane's delivery ledger. gaps_detected, replays_dropped, stale_dropped,
// admit_rejected, and sink_errors all zero means every frame the plane
// received has been applied exactly once — the sketch has not diverged
// from what the senders sent.
type UDPStatsJSON struct {
	FramesReceived  uint64 `json:"frames_received"`
	FramesApplied   uint64 `json:"frames_applied"`
	EdgesApplied    uint64 `json:"edges_applied"`
	Malformed       uint64 `json:"malformed"`
	GapsDetected    uint64 `json:"gaps_detected"`
	ReplaysDropped  uint64 `json:"replays_dropped"`
	LateApplied     uint64 `json:"late_applied"`
	StaleDropped    uint64 `json:"stale_dropped"`
	AdmitRejected   uint64 `json:"admit_rejected"`
	SinkErrors      uint64 `json:"sink_errors"`
	AcksSent        uint64 `json:"acks_sent"`
	Sessions        int    `json:"sessions"`
	SessionsEvicted uint64 `json:"sessions_evicted"`
}

// UDPStatsToWire converts the metrics snapshot to its wire form.
func UDPStatsToWire(s metrics.UDPStats) UDPStatsJSON {
	return UDPStatsJSON(s)
}

// Stats converts back to the engine type. An unrecognised (or absent)
// hash_family maps to the classic family — the only possibility for
// servers predating the field.
func (s StatsResponse) Stats() vos.Stats {
	st := vos.Stats{
		MemoryBits:    s.MemoryBits,
		SketchBits:    s.SketchBits,
		OnesCount:     s.OnesCount,
		Beta:          s.Beta,
		Users:         s.Users,
		MemoryBytes:   s.MemoryBytes,
		WindowSeconds: s.WindowSeconds,
		WindowBuckets: s.WindowBuckets,
	}
	if f, err := vos.ParseHashFamily(s.HashFamily); err == nil {
		st.Family = f
	}
	return st
}

// StatsToWire converts engine stats to their wire form.
func StatsToWire(s vos.Stats) StatsResponse {
	return StatsResponse{
		MemoryBits:    s.MemoryBits,
		SketchBits:    s.SketchBits,
		OnesCount:     s.OnesCount,
		Beta:          s.Beta,
		Users:         s.Users,
		MemoryBytes:   s.MemoryBytes,
		WindowSeconds: s.WindowSeconds,
		WindowBuckets: s.WindowBuckets,
		HashFamily:    s.Family.String(),
	}
}

// CheckpointResponse is the POST /v1/checkpoint answer.
type CheckpointResponse struct {
	// Position is the WAL position the checkpoint covers.
	Position uint64 `json:"position"`
}

// HealthResponse is the GET /v1/healthz and /v1/readyz answer.
type HealthResponse struct {
	Status string `json:"status"` // "ok" or "draining"
}

// ImportResponse is the POST /v1/cluster/import answer.
type ImportResponse struct {
	// Bytes is the serialized-sketch size that was merged and (on durable
	// engines) checkpointed before this acknowledgement.
	Bytes int `json:"bytes"`
}

// RingResponse is the GET /v1/cluster/ring answer (gateway tier): the
// live shard→node table, in the same shape as the on-disk ring document.
type RingResponse struct {
	Version   uint64   `json:"version"`
	RouteSeed uint64   `json:"route_seed"`
	Shards    []string `json:"shards"`
}

// HandoffRequest is the POST /v1/cluster/handoff body (gateway tier):
// move cluster shard Shard onto the fresh backend at To.
type HandoffRequest struct {
	Shard int `json:"shard"`
	// To is the target backend's base URL; it must be a fresh node not
	// already in the ring (its state is merged wholesale, so a node
	// already owning a shard would double-count — and XOR-cancel — state).
	To string `json:"to"`
}

// HandoffResponse is the POST /v1/cluster/handoff answer.
type HandoffResponse struct {
	// Version is the ring version after the move.
	Version uint64 `json:"version"`
}

// ClusterNodeCheckpointJSON is one shard's row in a cluster checkpoint.
type ClusterNodeCheckpointJSON struct {
	Shard    int    `json:"shard"`
	Node     string `json:"node"`
	Position uint64 `json:"position"`
}

// ClusterCheckpointResponse is the POST /v1/cluster/checkpoint answer
// (gateway tier): every backend checkpointed under a full ingest quiesce,
// recorded as a manifest.
type ClusterCheckpointResponse struct {
	RingVersion uint64                      `json:"ring_version"`
	Shards      []ClusterNodeCheckpointJSON `json:"shards"`
}

// Error codes of the /v1/ error envelope. Every non-2xx response carries
// {"error":{"code":<one of these>,"message":...}}; clients branch on Code,
// never on message text.
const (
	// CodeBadRequest: malformed body, unknown op, invalid parameters.
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed: wrong HTTP method for the route.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound: no such route.
	CodeNotFound = "not_found"
	// CodeTooLarge: one ingest payload exceeds Options.MaxBatchBytes.
	CodeTooLarge = "too_large"
	// CodeBackpressure: the in-flight ingest byte budget
	// (Options.MaxInFlightBytes) is exhausted; retry after a delay.
	CodeBackpressure = "backpressure"
	// CodeUnavailable: the service is closed or the query path cannot
	// answer in the engine's current state.
	CodeUnavailable = "unavailable"
	// CodeDraining: this instance is draining out of rotation ahead of a
	// shutdown or deploy; retry against another instance. Kept distinct
	// from CodeUnavailable so a transiently rotating instance is never
	// mistaken for a permanently closed engine.
	CodeDraining = "draining"
	// CodeOutsideWindow: the query's "at" instant predates the live
	// sliding window — the edges that would answer it have been retired
	// and exist nowhere in the engine. Unlike CodeBadRequest the request
	// is well-formed; the caller must drop the time constraint or the
	// operator must widen the window. Maps onto vos.ErrOutsideWindow.
	CodeOutsideWindow = "outside_window"
	// CodeCanceled: the request context was cancelled mid-query.
	CodeCanceled = "canceled"
	// CodeTimeout: the request context's deadline expired mid-query.
	CodeTimeout = "timeout"
	// CodeUnsupported: the route needs an optional capability (e.g.
	// checkpointing) the backing service does not implement.
	CodeUnsupported = "unsupported"
	// CodeInternal: everything else.
	CodeInternal = "internal"
)

// ErrorBody is the payload of the error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the uniform non-2xx response shape:
// {"error":{"code":...,"message":...}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}
