package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/admit"
	"github.com/vossketch/vos/internal/metrics"
	"github.com/vossketch/vos/internal/stream"
)

// Routes, all under the /v1/ version prefix.
const (
	RouteEdges       = "/v1/edges"       // POST: ingest (JSON, NDJSON, or binary)
	RouteSimilarity  = "/v1/similarity"  // GET ?u=&v=
	RouteTopK        = "/v1/topk"        // POST TopKRequest
	RouteCardinality = "/v1/cardinality" // GET ?user=
	RouteStats       = "/v1/stats"       // GET
	RouteCheckpoint  = "/v1/checkpoint"  // POST (durable engines only)
	RouteHealthz     = "/v1/healthz"     // GET liveness
	RouteReadyz      = "/v1/readyz"      // GET readiness (503 while draining)
	RouteMetrics     = "/v1/metrics"     // GET per-endpoint counters

	// Backend-side cluster state-transfer routes, served when the backing
	// service implements vos.StateSync (an engine-backed vosd does) or, for
	// the export alone, vos.StateExporter; 501 otherwise. The gateway uses
	// them for scatter-gather queries and shard handoff.
	RouteClusterSketch = "/v1/cluster/sketch" // GET [?since=cursor]: serialized engine state, or the edges since the cursor (binary)
	RouteClusterImport = "/v1/cluster/import" // POST: merge serialized state (handoff target)
)

// Gateway-tier routes, put on a Server by internal/cluster.Gateway.Register
// (through Handle) on vosgw, never by this package's New — a backend has no
// ring to serve. They are declared here so the route table (and
// TestOpenAPICoversEveryRoute's harvest against docs/openapi.yaml) has one home.
const (
	RouteClusterRing       = "/v1/cluster/ring"       // GET: the live shard→node table
	RouteClusterHandoff    = "/v1/cluster/handoff"    // POST HandoffRequest: move a shard
	RouteClusterCheckpoint = "/v1/cluster/checkpoint" // POST: cluster-wide checkpoint → manifest
)

// HeaderPartial marks a degraded scatter-gather response: "true" means
// part of the cluster state was unreachable and the body covers only the
// reachable portion (see vos.PartialTopK). Absent on complete answers.
const HeaderPartial = "X-Vos-Partial"

// HeaderSketchCursor, on a GET /v1/cluster/sketch response from a backend
// that offers the delta export (vos.StateSync), names the state the
// caller holds once it has applied the body: send it back as ?since= to
// get only what was applied in between. Its absence tells a gateway the
// backend can only ever answer in full. HeaderSketchFallback is set when a
// ?since= cursor was answered with the full sketch, and says why:
// "journal" (the cursor is older than the backend's bounded journal
// reaches) or "epoch" (the backend restarted, imported state or rotated its
// window since).
//
// On a POST /v1/edges answer, HeaderSketchBefore and HeaderSketchCursor are
// the batch's span (vos.SketchSpan), absent when the backend cannot tell.
const (
	HeaderSketchCursor   = "X-Vos-Sketch-Cursor"
	HeaderSketchFallback = "X-Vos-Sketch-Fallback"
	HeaderSketchBefore   = "X-Vos-Sketch-Before"
)

// HeaderBatchTs optionally carries a whole ingest batch's event time as
// fractional Unix seconds — the header equivalent of the per-edge "ts"
// field, and the only way to timestamp the binary VOSSTRM1 format (whose
// frames carry no time). Against a windowed service the largest of the
// header and per-edge timestamps advances the sliding window before the
// batch is ingested; unwindowed services ignore it.
const HeaderBatchTs = "X-Vos-Batch-Ts"

// Ingest content types accepted by POST /v1/edges.
const (
	// ContentTypeJSON carries one EdgeJSON object or a JSON array of them.
	ContentTypeJSON = "application/json"
	// ContentTypeNDJSON carries one EdgeJSON object per line.
	ContentTypeNDJSON = "application/x-ndjson"
	// ContentTypeBinary carries the VOSSTRM1 binary stream format
	// (stream.WriteBinary) — the compact, fast path the Go client uses.
	ContentTypeBinary = "application/octet-stream"
)

// Options tunes the server. The zero value selects the defaults.
type Options struct {
	// Admission is the ingest admission budget: the per-request body cap
	// (413/too_large past it) and the in-flight byte budget every ingest
	// request charges its worst-case footprint against (429/backpressure
	// with a Retry-After hint while it is exhausted) — see package admit.
	// Nil builds admit.NewController(0, 0), the package's defaults; vosd
	// passes one controller here and to its UDP listener, so both planes
	// share one process-wide budget.
	Admission *admit.Controller
	// UDPStats, when non-nil, is polled by /v1/stats to report the UDP
	// ingest plane's counters alongside the engine's (vosd wires it to the
	// datagram receiver when -udp-listen is set).
	UDPStats func() metrics.UDPStats
	// Logger, when non-nil, receives one line per request: method, route,
	// status, duration, and body size.
	Logger *log.Logger
}

// endpointStats is one route's counters. RateMeter is not concurrency-safe
// on its own, so everything sits behind the mutex.
type endpointStats struct {
	mu       sync.Mutex
	requests uint64
	errors   uint64
	totalNS  int64
	meter    metrics.RateMeter
}

// Server is an http.Handler serving the /v1/ API over a
// vos.SimilarityService. Create with New; all methods are safe for
// concurrent use.
type Server struct {
	svc vos.SimilarityService
	opt Options
	mux *http.ServeMux

	// adm is the ingest admission budget (guards memory, not correctness:
	// the service itself applies its own backpressure by blocking when
	// shard queues fill). Possibly shared with other ingest transports via
	// Options.Admission.
	adm *admit.Controller

	// draining and inFlight share drainMu: requests are admitted
	// (inFlight.Add under RLock, after re-checking the flag) only while
	// draining is false, and Drain flips the flag under Lock — so every
	// admitted request is visible to Drain's Wait, with no
	// check-then-register window.
	draining bool
	drainMu  sync.RWMutex
	inFlight sync.WaitGroup

	start time.Time
	// byRoute/routeList are filled by Handle (New, then whatever routes the
	// owner adds) before the first request and immutable afterwards; each
	// endpointStats carries its own lock.
	byRoute   map[string]*endpointStats
	routeList []string
}

// New builds a Server over svc. The handler is ready immediately; pair it
// with an http.Server (or httptest) owned by the caller.
func New(svc vos.SimilarityService, opt Options) *Server {
	adm := opt.Admission
	if adm == nil {
		adm = admit.NewController(0, 0)
	}
	s := &Server{
		svc:     svc,
		opt:     opt,
		mux:     http.NewServeMux(),
		adm:     adm,
		start:   time.Now(),
		byRoute: make(map[string]*endpointStats),
	}
	s.Handle(RouteEdges, http.MethodPost, s.handleEdges)
	s.Handle(RouteSimilarity, http.MethodGet, s.handleSimilarity)
	s.Handle(RouteTopK, http.MethodPost, s.handleTopK)
	s.Handle(RouteCardinality, http.MethodGet, s.handleCardinality)
	s.Handle(RouteStats, http.MethodGet, s.handleStats)
	s.Handle(RouteCheckpoint, http.MethodPost, s.handleCheckpoint)
	s.Handle(RouteClusterSketch, http.MethodGet, s.handleClusterSketch)
	s.Handle(RouteClusterImport, http.MethodPost, s.handleClusterImport)
	s.Handle(RouteMetrics, http.MethodGet, s.handleMetrics)
	// Health endpoints bypass the drain gate: a draining instance is still
	// alive, and readiness must keep answering (with 503) so load
	// balancers see the flip.
	s.mux.HandleFunc(RouteHealthz, func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
	})
	s.mux.HandleFunc(RouteReadyz, func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			WriteJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
			return
		}
		WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
	})
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, CodeNotFound, "no such route: "+r.URL.Path)
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// admit registers a request with the in-flight group unless the server is
// draining. The flag check and the Add happen under the same lock Drain
// uses to flip the flag, so Drain's Wait can never miss a request that
// was admitted (and the WaitGroup never sees an Add racing a Wait at
// counter zero).
func (s *Server) admit() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.inFlight.Add(1)
	return true
}

// Drain takes the server out of rotation: /v1/readyz flips to 503, new API
// requests are rejected with 503/unavailable, and Drain blocks until every
// in-flight request has finished or ctx expires. It does not close the
// backing service — the caller shuts the engine down after Drain returns,
// so queries admitted before the flip still answer from live state. Drain
// is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inFlight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// statusWriter captures the status code for logging and error counting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Handle registers an instrumented route: method gate, drain gate,
// in-flight tracking (Drain waits for it), per-endpoint counters (it shows
// in /v1/metrics), optional request log. New registers the standard API
// through it; a service with routes of its own (the cluster gateway) adds
// them the same way, so every route a daemon serves behaves alike. Call it
// before the server takes its first request, not while it serves.
func (s *Server) Handle(route, method string, h http.HandlerFunc) {
	st := &endpointStats{}
	s.byRoute[route] = st
	s.routeList = append(s.routeList, route)
	s.mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		func() {
			if r.Method != method {
				w.Header().Set("Allow", method)
				WriteError(sw, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
					fmt.Sprintf("%s requires %s", route, method))
				return
			}
			if !s.admit() {
				WriteError(sw, http.StatusServiceUnavailable, CodeDraining, "server is draining")
				return
			}
			defer s.inFlight.Done()
			h(sw, r)
		}()
		d := time.Since(t0)
		st.mu.Lock()
		st.requests++
		if sw.status >= 400 {
			st.errors++
		}
		st.totalNS += d.Nanoseconds()
		st.mu.Unlock()
		if s.opt.Logger != nil {
			s.opt.Logger.Printf("%s %s %d %s %dB", r.Method, route, sw.status, d, r.ContentLength)
		}
	})
}

// --- ingest ---

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	// Admission control (internal/admit): charge this request's worst-case
	// memory — wire bytes (declared, or the per-request cap for chunked
	// bodies of unknown length) plus the largest edge slice the body could
	// decode to — against the in-flight budget before reading a byte. The
	// hold is trimmed to the real footprint once parsing reveals the edge
	// count. Only the length handling is HTTP-specific: chunked binary
	// would have to charge the cap's worst case — a fixed ~13x
	// the batch cap no matter how small the body, which under a tight
	// budget rejects requests that splitting cannot save. Binary senders
	// buffer batches anyway (the Go client does), so demand the length
	// instead of guessing.
	wire := r.ContentLength
	isBinary := normalizeCT(r.Header.Get("Content-Type")) == ContentTypeBinary
	if wire < 0 {
		if isBinary {
			WriteError(w, http.StatusLengthRequired, CodeBadRequest,
				"binary ingest requires Content-Length")
			return
		}
		wire = s.adm.MaxBatchBytes()
	}
	hold, err := s.adm.Admit(wire, isBinary)
	if err != nil {
		WriteServiceError(w, err) // 413 too_large, or 429 backpressure with a retry hint
		return
	}
	defer hold.Close()

	body := http.MaxBytesReader(w, r.Body, s.adm.MaxBatchBytes())
	var edges []vos.Edge
	var encoded []byte // a binary body's count and elements, which a durable engine logs as they came
	var maxTs float64  // the binary format carries no timestamps; HeaderBatchTs is its clock
	if isBinary {
		// Read and decoded in pooled memory, handed back once svc.Ingest
		// has returned: the service does not keep the slice or the bytes
		// (vos.SimilarityService.Ingest, vos.StateSync.IngestSpan).
		buf := reqBufs.Get().(*reqBuf)
		defer buf.release()
		edges, encoded, err = buf.decodeBinary(body, wire)
	} else {
		edges, maxTs, err = decodeEdges(r.Header.Get("Content-Type"), body)
	}
	if err != nil {
		WriteBodyError(w, err)
		return
	}
	if hdr := r.Header.Get(HeaderBatchTs); hdr != "" {
		ts, err := strconv.ParseFloat(hdr, 64)
		if err != nil || !validUnixSeconds(ts) {
			WriteError(w, http.StatusBadRequest, CodeBadRequest,
				HeaderBatchTs+" must be positive fractional unix seconds before year 2262")
			return
		}
		if ts > maxTs {
			maxTs = ts
		}
	}
	// Trim the pessimistic hold to the real footprint, freeing budget for
	// concurrent requests while the engine ingests.
	hold.Trim(len(edges))
	// Timestamped ingest drives event time: the batch's largest timestamp
	// rotates a windowed service forward before the edges land, so the
	// window tracks stream time even when it outruns the wall clock.
	// Unwindowed services accept the timestamps and ignore them.
	if maxTs > 0 {
		if wsvc, ok := s.svc.(vos.Windowed); ok {
			if err := wsvc.AdvanceWindow(r.Context(), unixSeconds(maxTs)); err != nil && !errors.Is(err, vos.ErrNoWindow) {
				WriteServiceError(w, err)
				return
			}
		}
	}
	var span vos.SketchSpan
	if ss, ok := s.svc.(vos.StateSync); ok {
		span, err = ss.IngestSpan(r.Context(), edges, encoded)
	} else {
		err = s.svc.Ingest(r.Context(), edges)
	}
	if err != nil {
		WriteServiceError(w, err)
		return
	}
	if span.After != "" {
		vals := []string{span.Before, span.After}
		w.Header()[HeaderSketchBefore], w.Header()[HeaderSketchCursor] = vals[:1:1], vals[1:]
	}
	WriteJSON(w, http.StatusOK, IngestResponse{Accepted: len(edges)})
}

// maxUnixSeconds bounds the ts/at wire fields: the largest fractional
// Unix second whose nanosecond form fits int64 (≈ year 2262). Values past
// it would overflow the conversion to an unspecified — on amd64, far
// PAST — instant, flipping a far-future timestamp into the far past.
const maxUnixSeconds = float64(math.MaxInt64) / 1e9

// validUnixSeconds reports whether ts is a usable wire timestamp:
// positive, finite, and within the int64-nanosecond range.
func validUnixSeconds(ts float64) bool {
	return ts > 0 && !math.IsInf(ts, 0) && !math.IsNaN(ts) && ts < maxUnixSeconds
}

// unixSeconds converts fractional Unix seconds to a time.Time. Callers
// validate with validUnixSeconds first.
func unixSeconds(ts float64) time.Time {
	return time.Unix(0, int64(ts*1e9))
}

// normalizeCT strips parameters, surrounding space, and case from a
// Content-Type header value.
func normalizeCT(contentType string) string {
	if i := strings.IndexByte(contentType, ';'); i >= 0 {
		contentType = contentType[:i]
	}
	return strings.TrimSpace(strings.ToLower(contentType))
}

// reqBuf is the memory one request is read into: a binary POST /v1/edges
// body and the edges decoded from it, or a query's body and the answer
// appended after it (answerjson.go). A handler takes one from reqBufs and
// releases it once the service has returned and w.Write has copied the
// answer, so steady traffic allocates neither.
type reqBuf struct {
	b     []byte
	edges []vos.Edge
	// limit is decodeBinary's io.LimitReader, kept here because a fresh one
	// would escape to the heap on every request.
	limit io.LimitedReader
}

var reqBufs = sync.Pool{New: func() any { return new(reqBuf) }}

// maxPooledBytes bounds what release keeps of each of the two buffers: a
// rare huge request (bodies run to the batch cap, their edges to 12x that) is
// allocated for the request and collected after it instead of sitting in the
// pool for the process's life.
const maxPooledBytes = 1 << 20

// decodeBinary reads a binary body of wire bytes — the Content-Length the
// handler demands of the format — and decodes it, both in b's memory, and
// returns the edges with the body's count and elements
// (stream.BinaryElements). A body shorter or longer than it promised is
// refused.
func (b *reqBuf) decodeBinary(body io.Reader, wire int64) ([]vos.Edge, []byte, error) {
	// Room for one byte past the promise, so that a longer body shows.
	if int64(cap(b.b)) <= wire {
		b.b = make([]byte, 0, wire+1)
	}
	b.limit = io.LimitedReader{R: body, N: wire + 1}
	var err error
	b.b, err = readInto(b.b[:0], &b.limit)
	b.limit.R = nil // the pool keeps no request's body
	if err != nil {
		return nil, nil, fmt.Errorf("binary body: %w", err)
	}
	switch n := int64(len(b.b)); {
	case n < wire:
		return nil, nil, fmt.Errorf("binary body: ends after %d of the %d bytes Content-Length promised", n, wire)
	case n > wire:
		return nil, nil, fmt.Errorf("binary body: runs past the %d bytes Content-Length promised", wire)
	}
	edges, err := stream.DecodeBinaryInto(b.edges, b.b)
	if err != nil {
		return nil, nil, fmt.Errorf("binary body: %w", err)
	}
	b.edges = edges
	return edges, stream.BinaryElements(b.b), nil
}

// readInto appends r to b until EOF: io.ReadAll into memory the caller owns.
func readInto(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// released, when set, sees each buffer as release takes it back (a test
// hook).
var released func(*reqBuf)

// release returns b to the pool, less any buffer past maxPooledBytes.
func (b *reqBuf) release() {
	if released != nil {
		released(b)
	}
	if cap(b.b) > maxPooledBytes {
		b.b = nil
	}
	if int64(cap(b.edges))*admit.EdgeMemBytes > maxPooledBytes {
		b.edges = nil
	}
	reqBufs.Put(b)
}

// decodeEdges parses an ingest body in either of the two text formats (the
// binary one is decodeBinary's). The second return is the largest per-edge
// event timestamp seen (fractional Unix seconds; 0 when none).
func decodeEdges(contentType string, body io.Reader) ([]vos.Edge, float64, error) {
	switch normalizeCT(contentType) {
	case ContentTypeNDJSON:
		return decodeNDJSON(body)
	case ContentTypeJSON, "", "text/json":
		return decodeJSONEdges(body)
	default:
		return nil, 0, fmt.Errorf("unsupported Content-Type %q (want %s, %s, or %s)",
			contentType, ContentTypeJSON, ContentTypeNDJSON, ContentTypeBinary)
	}
}

// decodeJSONEdges accepts either a single EdgeJSON object (single-event
// ingest) or an array of them (batch).
func decodeJSONEdges(body io.Reader) ([]vos.Edge, float64, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, 0, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, 0, errors.New("empty body")
	}
	if trimmed[0] == '[' {
		var ws []EdgeJSON
		if err := DecodeStrictJSON(bytes.NewReader(data), &ws); err != nil {
			return nil, 0, fmt.Errorf("bad JSON edge array: %w", err)
		}
		return edgesFromWire(ws)
	}
	var one EdgeJSON
	if err := DecodeStrictJSON(bytes.NewReader(data), &one); err != nil {
		return nil, 0, fmt.Errorf("bad JSON edge: %w", err)
	}
	return edgesFromWire([]EdgeJSON{one})
}

// DecodeStrictJSON decodes exactly one JSON value from r into out: a
// misspelt field is refused rather than taken as a silent default, and so
// is input left over after the value — Decoder.Decode stops at the value's
// end, so without that check concatenated or corrupted payloads would be
// silently half-read. Every JSON document this module takes from outside
// (ingest, query and control-plane bodies, the cluster's ring and manifest)
// is read through it.
func DecodeStrictJSON(r io.Reader, out any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// decodeNDJSON parses one EdgeJSON per line; blank lines are skipped.
func decodeNDJSON(body io.Reader) ([]vos.Edge, float64, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var ws []EdgeJSON
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		// Same strictness as the JSON array path: a misspelled field must
		// be rejected, not silently ingested as the zero user/item, and a
		// line holding more than one value is corruption, not a batch.
		var e EdgeJSON
		if err := DecodeStrictJSON(bytes.NewReader(raw), &e); err != nil {
			return nil, 0, fmt.Errorf("ndjson line %d: %w", line, err)
		}
		ws = append(ws, e)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("ndjson: %w", err)
	}
	return edgesFromWire(ws)
}

func edgesFromWire(ws []EdgeJSON) ([]vos.Edge, float64, error) {
	out := make([]vos.Edge, len(ws))
	maxTs := 0.0
	for i, w := range ws {
		e, err := w.Edge()
		if err != nil {
			return nil, 0, fmt.Errorf("edge %d: %w", i, err)
		}
		if w.Ts != 0 && !validUnixSeconds(w.Ts) {
			return nil, 0, fmt.Errorf("edge %d: ts must be positive unix seconds before year 2262, got %v", i, w.Ts)
		}
		if w.Ts > maxTs {
			maxTs = w.Ts
		}
		out[i] = e
	}
	return out, maxTs, nil
}

// --- queries ---

// checkAt enforces the query-time window guard for an "at" instant given
// as fractional Unix seconds (0 = no constraint, always fine). It writes
// the error response and returns false when the query cannot be served:
// "bad_request" when the backing service has no window to check against,
// "outside_window" when at predates the live window — the edges that
// would answer it have been retired. Instants inside (or ahead of) the
// window are served from the live view.
func (s *Server) checkAt(w http.ResponseWriter, r *http.Request, at float64) bool {
	if at == 0 {
		return true
	}
	if !validUnixSeconds(at) {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "at must be positive unix seconds before year 2262")
		return false
	}
	var info vos.WindowInfo
	err := vos.ErrNoWindow // what a service without the capability amounts to
	if wsvc, ok := s.svc.(vos.Windowed); ok {
		info, err = wsvc.WindowInfo(r.Context())
	}
	if errors.Is(err, vos.ErrNoWindow) {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "at requires a sliding-window service; this service retains the whole stream")
		return false
	} else if err != nil {
		WriteServiceError(w, err)
		return false
	}
	if t := unixSeconds(at); t.Before(info.Start) {
		WriteError(w, http.StatusUnprocessableEntity, CodeOutsideWindow,
			fmt.Sprintf("instant %s predates the live window (starts %s, spans %s)",
				t.UTC().Format(time.RFC3339Nano), info.Start.UTC().Format(time.RFC3339Nano), info.Span()))
		return false
	}
	return true
}

// nonFiniteAnswer is the 500 for the one estimate the answer kernel declines:
// JSON has no NaN or Inf, and encoding/json refuses the same value.
const nonFiniteAnswer = "service returned a non-finite estimate"

func (s *Server) handleSimilarity(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	u, okU := parseID(q.Get("u"))
	v, okV := parseID(q.Get("v"))
	if !okU || !okV {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "u and v must be unsigned integers")
		return
	}
	if atStr := q.Get("at"); atStr != "" {
		at, err := strconv.ParseFloat(atStr, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, "at must be fractional unix seconds")
			return
		}
		if !s.checkAt(w, r, at) {
			return
		}
	}
	est, err := s.svc.Similarity(r.Context(), vos.User(u), vos.User(v))
	if err != nil {
		WriteServiceError(w, err)
		return
	}
	buf := reqBufs.Get().(*reqBuf)
	defer buf.release()
	var ok bool
	if buf.b, ok = AppendEstimate(buf.b[:0], est); !ok {
		WriteError(w, http.StatusInternalServerError, CodeInternal, nonFiniteAnswer)
		return
	}
	writeJSONBytes(w, buf.b)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	// The body is read and the answer appended in the same pooled bytes: the
	// request is a value of its own by the time there is a ranking to write.
	buf := reqBufs.Get().(*reqBuf)
	defer buf.release()
	var req TopKRequest
	var err error
	if buf.b, err = readInto(buf.b[:0], http.MaxBytesReader(nil, r.Body, s.adm.MaxBatchBytes())); err == nil {
		req, err = decodeTopKRequest(buf.b)
	}
	if err != nil {
		WriteBodyError(w, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	var top []vos.TopKResult
	switch req.Mode {
	case "", "exact":
		if req.N <= 0 || len(req.Candidates) == 0 {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, "need n > 0 and a non-empty candidates list")
			return
		}
		if !s.checkAt(w, r, req.At) {
			return
		}
		if pt, ok := s.svc.(vos.PartialTopK); ok {
			// Degraded-read capable backends (the cluster gateway) answer
			// even with part of the state unreachable; incompleteness is
			// surfaced as a header so the body shape stays identical.
			var complete bool
			top, complete, err = pt.TopKPartial(r.Context(), req.User, req.Candidates, req.N)
			if err == nil && !complete {
				w.Header().Set(HeaderPartial, "true")
			}
		} else {
			top, err = s.svc.TopK(r.Context(), req.User, req.Candidates, req.N)
		}
	case "ann":
		if req.N <= 0 {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, "need n > 0")
			return
		}
		if len(req.Candidates) != 0 {
			WriteError(w, http.StatusBadRequest, CodeBadRequest, `mode "ann" is candidates-free; omit the candidates list`)
			return
		}
		ann, ok := s.svc.(vos.ApproxTopK)
		if !ok {
			WriteError(w, http.StatusNotImplemented, CodeUnsupported, "backing service does not support approximate top-K")
			return
		}
		if !s.checkAt(w, r, req.At) {
			return
		}
		top, err = ann.TopKApprox(r.Context(), req.User, req.N)
	default:
		WriteError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf(`mode must be "exact" or "ann", got %q`, req.Mode))
		return
	}
	if err != nil {
		WriteServiceError(w, err)
		return
	}
	if top == nil {
		top = []vos.TopKResult{} // an empty ranking travels as [], not null
	}
	var ok bool
	if buf.b, ok = AppendTopK(buf.b[:0], top); !ok {
		WriteError(w, http.StatusInternalServerError, CodeInternal, nonFiniteAnswer)
		return
	}
	writeJSONBytes(w, buf.b)
}

// decodeTopKRequest reads a POST /v1/topk body: by the kernel when it is in
// the canonical form, strictly by encoding/json when it is anything else.
func decodeTopKRequest(body []byte) (TopKRequest, error) {
	req, ok := ScanTopKRequest(body)
	if ok {
		return req, nil
	}
	err := DecodeStrictJSON(bytes.NewReader(body), &req)
	return req, err
}

func (s *Server) handleCardinality(w http.ResponseWriter, r *http.Request) {
	u, ok := parseID(r.URL.Query().Get("user"))
	if !ok {
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "user must be an unsigned integer")
		return
	}
	card, err := s.svc.Cardinality(r.Context(), vos.User(u))
	if err != nil {
		WriteServiceError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, CardinalityResponse{User: u, Cardinality: card})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.svc.Stats(r.Context())
	if err != nil {
		WriteServiceError(w, err)
		return
	}
	resp := StatsResponse{Stats: st}
	if s.opt.UDPStats != nil {
		udp := s.opt.UDPStats()
		resp.UDP = &udp
	}
	if sr, ok := s.svc.(vos.StatsReporter); ok {
		snap := sr.SnapshotStats()
		resp.Snapshot = &snap
		if ann, ok := sr.ANNStats(); ok {
			resp.ANN = &ann
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// --- cluster state transfer ---

// MaxSketchBytes caps a POST /v1/cluster/import body, and with it what
// package client reads of any response: a GET /v1/cluster/sketch answer is
// the next import's body, so both ends take what the other may send. A
// serialized sketch is array + cardinality map — far under this for any
// real config — but the cap keeps a malicious body from buffering without
// bound (imports are rare control-plane transfers, deliberately not charged
// against the ingest admission budget).
const MaxSketchBytes = 1 << 30

// handleClusterSketch serves the backing service's state: in full, or —
// to a ?since= cursor, from a service that keeps a journal — as the edges
// applied since, in the binary stream format POST /v1/edges reads. The two
// bodies tell themselves apart by their magic. A service without the delta
// export ignores since, as a vosd that predates it does.
func (s *Server) handleClusterSketch(w http.ResponseWriter, r *http.Request) {
	var data []byte
	if ss, ok := s.svc.(vos.StateSync); ok {
		d, err := ss.ExportSince(r.Context(), r.URL.Query().Get("since"))
		if err != nil {
			WriteServiceError(w, err)
			return
		}
		w.Header().Set(HeaderSketchCursor, d.Cursor)
		if d.Fallback != "" {
			w.Header().Set(HeaderSketchFallback, d.Fallback)
		}
		if data = d.Full; data == nil {
			// Edges put into a memory-only service in process may name users
			// the encoding cannot carry; the delta is refused, not bent.
			if data, err = stream.AppendBinary(nil, d.Edges); err != nil {
				WriteServiceError(w, err)
				return
			}
		}
	} else if exp, ok := s.svc.(vos.StateExporter); ok {
		var err error
		if data, err = exp.ExportSketch(r.Context()); err != nil {
			WriteServiceError(w, err)
			return
		}
	} else {
		WriteError(w, http.StatusNotImplemented, CodeUnsupported, "backing service does not export sketch state")
		return
	}
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleClusterImport(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.svc.(vos.StateSync)
	if !ok {
		WriteError(w, http.StatusNotImplemented, CodeUnsupported, "backing service does not import sketch state")
		return
	}
	if ct := normalizeCT(r.Header.Get("Content-Type")); ct != ContentTypeBinary {
		WriteError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("cluster import takes %s, got %q", ContentTypeBinary, ct))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSketchBytes))
	if err != nil {
		WriteBodyError(w, err)
		return
	}
	if err := ss.ImportSketch(r.Context(), data); err != nil {
		WriteServiceError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, ImportResponse{Bytes: len(data)})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	ck, ok := s.svc.(vos.Checkpointer)
	if !ok {
		WriteError(w, http.StatusNotImplemented, CodeUnsupported, "backing service does not support checkpoints")
		return
	}
	pos, err := ck.Checkpoint(r.Context())
	if err != nil {
		WriteServiceError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, CheckpointResponse{Position: pos})
}

// --- metrics ---

// EndpointMetrics is one route's row in the /v1/metrics response.
type EndpointMetrics struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// AvgLatencyMS is the lifetime mean handler latency.
	AvgLatencyMS float64 `json:"avg_latency_ms"`
	// RequestsPerSec is the request rate since the previous /v1/metrics
	// scrape (0 on the first scrape) — the RateMeter window.
	RequestsPerSec float64 `json:"requests_per_sec"`
}

// MetricsResponse is the GET /v1/metrics answer.
type MetricsResponse struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Endpoints     map[string]EndpointMetrics `json:"endpoints"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	out := MetricsResponse{
		UptimeSeconds: now.Sub(s.start).Seconds(),
		Endpoints:     make(map[string]EndpointMetrics, len(s.routeList)),
	}
	for _, route := range s.routeList {
		st := s.byRoute[route]
		st.mu.Lock()
		m := EndpointMetrics{
			Requests:       st.requests,
			Errors:         st.errors,
			RequestsPerSec: st.meter.Observe(st.requests, now),
		}
		if st.requests > 0 {
			m.AvgLatencyMS = float64(st.totalNS) / float64(st.requests) / 1e6
		}
		st.mu.Unlock()
		out.Endpoints[route] = m
	}
	WriteJSON(w, http.StatusOK, out)
}

// --- shared plumbing ---

// WriteServiceError maps a service error onto the typed envelope
// (StatusFor); backpressure carries its Retry-After hint wherever it was
// raised — by this server's admission or, behind a gateway, by a backend's.
func WriteServiceError(w http.ResponseWriter, err error) {
	status, code := StatusFor(err)
	if code == CodeBackpressure {
		w.Header().Set("Retry-After", "1")
	}
	WriteError(w, status, code, err.Error())
}

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// for "the client cancelled the request": no standard 4xx fits, and 5xx
// would page an operator for client behavior.
const StatusClientClosedRequest = 499

// StatusFor maps service-layer errors to HTTP status + envelope code. An
// error in the chain that carries its own HTTPStatus wins over the table:
// that is how a backend's answer (*client.Error) passes through a gateway
// unchanged, and how a package this one cannot import (internal/cluster)
// classifies its own sentinels.
func StatusFor(err error) (int, string) {
	var own interface {
		HTTPStatus() (status int, code string)
	}
	var tooLarge *admit.BatchTooLargeError
	var overBudget *admit.BudgetExceededError
	switch {
	case errors.As(err, &own):
		return own.HTTPStatus()
	case errors.As(err, &tooLarge), errors.As(err, &overBudget):
		// Admission: retrying cannot help either way — the caller must
		// split (the charge scales with the declared size, so splitting
		// always helps).
		return http.StatusRequestEntityTooLarge, CodeTooLarge
	case errors.Is(err, admit.ErrBackpressure):
		// Admission: transient, so WriteServiceError adds a retry hint.
		return http.StatusTooManyRequests, CodeBackpressure
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeTimeout
	case errors.Is(err, vos.ErrEngineNoDurability):
		// A memory-only engine satisfies Checkpointer but cannot deliver:
		// the capability, not the instance, is missing.
		return http.StatusNotImplemented, CodeUnsupported
	case errors.Is(err, vos.ErrNoANN), errors.Is(err, errors.ErrUnsupported):
		// Same shape for approximate top-K (an engine-backed service
		// satisfies ApproxTopK, but the engine has no band index) and for
		// an import into a windowed engine.
		return http.StatusNotImplemented, CodeUnsupported
	case errors.Is(err, vos.ErrOutsideWindow):
		// Well-formed but unanswerable: the requested instant's edges have
		// been retired from the sliding window.
		return http.StatusUnprocessableEntity, CodeOutsideWindow
	case errors.Is(err, vos.ErrNoWindow), errors.Is(err, vos.ErrBadCursor), errors.Is(err, vos.ErrUserRange):
		return http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, vos.ErrCorruptSketch), errors.Is(err, vos.ErrFamilyMismatch):
		// Cluster import of undecodable or cross-family state: the request
		// body is at fault, not the server.
		return http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, vos.ErrClosed), errors.Is(err, vos.ErrQueryUnavailable):
		return http.StatusServiceUnavailable, CodeUnavailable
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONBytes writes a 200 whose JSON body is already encoded, under its
// length: net/http works that out by itself only up to 2 KiB — a top 10 is
// past it — and the client sizes its read from it.
func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// WriteError writes the typed error envelope.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg}})
}

// DecodeJSONBody strictly decodes (DecodeStrictJSON) a request body of at
// most limit bytes into out; answer its error with WriteBodyError.
func DecodeJSONBody(r *http.Request, limit int64, out any) error {
	if err := DecodeStrictJSON(http.MaxBytesReader(nil, r.Body, limit), out); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	return nil
}

// WriteBodyError answers a request body that could not be read or decoded:
// 413 too_large when it ran past its byte cap, 400 bad_request otherwise.
func WriteBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, err.Error())
		return
	}
	WriteError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
}

func parseID(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	x, err := strconv.ParseUint(s, 10, 64)
	return x, err == nil
}
