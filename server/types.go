package server

import (
	"fmt"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/metrics"
)

// Wire types of the /v1/ API, declared once. The answers — vos.Estimate,
// vos.TopKResult, vos.Stats, vos.SnapshotStats, vos.ANNStats,
// metrics.UDPStats — carry their wire names as json tags on the types that
// compute them; the handlers encode, and package client decodes, those
// types themselves. This file holds what has no such home — request
// bodies, acknowledgement envelopes, and EdgeJSON, whose op and ts are wire
// forms — and package client imports it rather than keeping a copy, so the
// two ends of the wire cannot drift.
//
// Estimates travel as full float64 JSON numbers: the shortest decimal that
// round-trips the exact float64, so a decoded estimate is bit-identical to
// the one the engine produced — the property the client↔server parity tests
// pin. For the pair estimate, the top-K ranking and the top-K request the
// kernel in answerjson.go emits and reads it (strconv's shortest digits under
// encoding/json's format rule), for every other body and for whatever the
// kernel declines encoding/json does; FuzzAnswerJSON and
// TestAnswerJSONDifferential hold the two equal byte for byte, and
// TestWireGolden pins the bytes themselves.

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

// Edge converts to the stream element type. It rejects unknown ops, and a
// user id the binary encoding could not carry further (vos.ErrUserRange): a
// durable service would refuse it at its log, and a memory-only one must
// answer alike.
func (e EdgeJSON) Edge() (vos.Edge, error) {
	if e.User > uint64(vos.MaxUser) {
		return vos.Edge{}, fmt.Errorf("user %d: %w", e.User, vos.ErrUserRange)
	}
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
	User       vos.User   `json:"user"`
	Candidates []vos.User `json:"candidates"`
	N          int        `json:"n"`
	At         float64    `json:"at,omitempty"`
	Mode       string     `json:"mode,omitempty"`
}

// CardinalityResponse is the GET /v1/cardinality answer.
type CardinalityResponse struct {
	User        uint64 `json:"user"`
	Cardinality int64  `json:"cardinality"`
}

// StatsResponse is the GET /v1/stats answer: vos.Stats (window_seconds and
// window_buckets present only in sliding-window mode, where the stats
// describe the live window's state, not the whole stream's) with the
// serving process's optional sections hung off it.
type StatsResponse struct {
	vos.Stats
	// UDP is the UDP ingest plane's delivery ledger, present only when the
	// serving process runs a datagram listener (vosd -udp-listen).
	UDP *metrics.UDPStats `json:"udp,omitempty"`
	// Snapshot reports how the service's merged query snapshot has been
	// kept current, present when the backing service is a
	// vos.StatsReporter (an in-process Engine, or the cluster gateway —
	// both send the same object; the fields only the other tier counts stay
	// zero).
	Snapshot *vos.SnapshotStats `json:"snapshot,omitempty"`
	// ANN reports the approximate top-K index's occupancy and maintenance,
	// present when the backing service is a vos.StatsReporter with an index
	// configured (vosd -ann; never the gateway).
	ANN *vos.ANNStats `json:"ann,omitempty"`
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
	// CodeTooLarge: one request body exceeds the admission controller's
	// batch cap (Options.Admission), or a binary batch's worst case exceeds
	// its whole in-flight budget; split the batch.
	CodeTooLarge = "too_large"
	// CodeBackpressure: the admission controller's in-flight ingest byte
	// budget (Options.Admission) is exhausted; retry after a delay.
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
