// Package server exposes a vos.SimilarityService over a versioned HTTP+JSON
// API — the network front door of the module. It is deliberately thin: all
// sketch semantics live behind the service interface, the server adds the
// wire concerns a production deployment needs and nothing else:
//
//   - versioned routes under /v1/ (see Routes) with a uniform typed error
//     envelope {"error":{"code":...,"message":...}} — clients branch on
//     the code, never on message text,
//   - single-event and batch ingest in three formats (JSON, NDJSON, and
//     the VOSSTRM1 binary stream codec) with backpressure: a bounded
//     in-flight ingest byte budget sheds load with 429/backpressure
//     instead of letting concurrent bulk loads exhaust memory,
//   - sliding-window plumbing for windowed services (vos.Windowed):
//     timestamped ingest — per-edge "ts" fields or the X-Vos-Batch-Ts
//     header — advances event time before the batch lands, GET /v1/stats
//     reports window_seconds/window_buckets, and a query whose "at"
//     instant predates the live window answers the typed 422
//     outside_window envelope instead of silently serving partial state,
//   - a binary ingest request's memory kept off the heap's books: the body
//     is read into a pooled buffer of the Content-Length the format must
//     declare and decoded into a pooled edge slice, both handed back when
//     svc.Ingest returns (vos.SimilarityService.Ingest: the service does
//     not keep the slice), so between the socket and the service an edge is
//     written twice — the body's bytes, the decoded struct — and nothing is
//     allocated; the one copy after that is the engine's own partition into
//     its shard queues. JSON and NDJSON bodies are decoded into fresh
//     memory. A user id above vos.MaxUser is refused (400) in any format,
//   - request contexts plumbed into the service, so a disconnected or
//     timed-out caller actually aborts its in-flight top-K scan,
//   - health (/v1/healthz) and readiness (/v1/readyz) probes plus
//     graceful drain: Drain flips readiness, rejects new work with the
//     "draining" code (distinct from "unavailable", so a rotating
//     instance is never mistaken for a closed engine), and waits for
//     in-flight requests so a deployment can rotate instances without
//     dropping queries,
//   - per-endpoint observability at /v1/metrics (request counts, error
//     counts, latency, and windowed request rates via metrics.RateMeter)
//     and optional request logging.
//
// An answer is declared once: the types that compute it (vos.Estimate,
// vos.TopKResult, vos.Stats and the stats sections) carry their wire names
// as json tags and are what the handlers encode; types.go adds the request
// bodies and envelopes. docs/openapi.yaml is the same contract as an
// OpenAPI 3.1 document (kept honest by openapi_test.go: every registered
// route, envelope code and json field must appear in the spec, and
// TestWireGolden pins the response bytes). The matching Go client is package client;
// cmd/vosd wires this server to a durable engine behind flags.
//
// A Server is an http.Handler; all methods are safe for concurrent use.
// Its lifecycle is Drain-then-close-the-service: Drain does not close the
// backing service, so queries admitted before the readiness flip still
// answer from live state.
package server
