package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/server"
)

// Error is a typed server-side failure, decoded from the /v1/ error
// envelope. Transport failures (connection refused, timeouts) are returned
// as-is, not wrapped in Error.
type Error struct {
	// Status is the HTTP status code.
	Status int
	// Code is the envelope code (server.Code*); branch on this.
	Code string
	// Message is the human-readable detail.
	Message string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("vos server: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
}

// HTTPStatus is the status and envelope code the server answered with. A
// server that serves through this client (the cluster gateway) answers its
// own caller with them: server.StatusFor lets an error that carries its own
// HTTPStatus win, so a backend's refusal passes through unchanged.
func (e *Error) HTTPStatus() (status int, code string) { return e.Status, e.Code }

// Is maps envelope codes back onto the service-layer sentinels:
// unavailable matches vos.ErrClosed and vos.ErrQueryUnavailable, canceled
// and timeout match the context errors, outside_window matches
// vos.ErrOutsideWindow — so code written against an in-process
// SimilarityService keeps working against a remote one.
// A draining instance is transient, not shut down: its code matches
// vos.ErrQueryUnavailable (the query path cannot answer right now) but
// never vos.ErrClosed, so callers branching on ErrClosed only see genuine
// engine shutdown.
func (e *Error) Is(target error) bool {
	switch e.Code {
	case server.CodeUnavailable:
		return target == vos.ErrClosed || target == vos.ErrQueryUnavailable
	case server.CodeDraining:
		return target == vos.ErrQueryUnavailable
	case server.CodeOutsideWindow:
		return target == vos.ErrOutsideWindow
	case server.CodeCanceled:
		return target == context.Canceled
	case server.CodeTimeout:
		return target == context.DeadlineExceeded
	}
	return false
}

// Options tunes a Client. The zero value selects the defaults.
type Options struct {
	// HTTPClient overrides the transport. Default: a client with a 30s
	// overall timeout (per-request contexts still apply on top).
	HTTPClient *http.Client
	// BatchSize is how many edges Ingest buffers before shipping a batch
	// — the same knob as EngineConfig.BatchSize, one wire round-trip per
	// batch. Default 256.
	BatchSize int
	// Linger bounds how long a partial batch sits unsent on an idle
	// stream: a background ticker flushes this often. Negative disables
	// the ticker (then only full batches, Flush, and Close ship edges).
	// Default 50ms.
	Linger time.Duration
	// MaxRetries is how many times idempotent reads are retried after a
	// transport error or 5xx (so MaxRetries+1 attempts total). Writes are
	// never retried — replaying an XOR toggle would corrupt parity.
	// Default 2; negative disables retries.
	MaxRetries int
	// RetryBackoff is the first retry's delay; each subsequent retry
	// doubles it. Default 50ms.
	RetryBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.Linger == 0 {
		o.Linger = 50 * time.Millisecond
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	return o
}

// Client implements vos.SimilarityService (and vos.Checkpointer) over the
// /v1/ HTTP API. Safe for concurrent use. Close when done so buffered
// edges are shipped and the linger ticker stops.
type Client struct {
	base string
	opt  Options
	// maxResponse caps a response body: server.MaxSketchBytes, the largest
	// export a server may send (a field so that a test can lower it).
	maxResponse int64

	// flushMu is held across take-and-ship (and, in the linger goroutine,
	// parking the ship's error), so a Flush that finds the buffer empty
	// because the linger goroutine has just taken it waits for that ship and
	// sees its outcome, instead of promising a write still on the wire.
	flushMu sync.Mutex

	mu      sync.Mutex
	pend    []vos.Edge
	pendErr error // first error from a background linger flush
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// Compile-time interface checks: the remote client is a drop-in
// SimilarityService.
var (
	_ vos.SimilarityService = (*Client)(nil)
	_ vos.Checkpointer      = (*Client)(nil)
)

// New creates a Client for the API at baseURL (e.g. "http://host:8080");
// any trailing slash is trimmed.
func New(baseURL string, opt Options) *Client {
	c := &Client{
		base:        strings.TrimRight(baseURL, "/"),
		opt:         opt.withDefaults(),
		maxResponse: server.MaxSketchBytes,
		stop:        make(chan struct{}),
	}
	if c.opt.Linger > 0 {
		c.wg.Add(1)
		go c.linger()
	}
	return c
}

// linger ships partial batches in the background, mirroring the engine's
// producer ticker. Errors are parked in pendErr and surfaced by the next
// Ingest or Flush — a background goroutine has nobody to return to.
func (c *Client) linger() {
	defer c.wg.Done()
	t := time.NewTicker(c.opt.Linger)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.flushMu.Lock()
			if err := c.flushLocked(context.Background()); err != nil {
				c.mu.Lock()
				if c.pendErr == nil {
					c.pendErr = err
				}
				c.mu.Unlock()
			}
			c.flushMu.Unlock()
		}
	}
}

// Ingest implements vos.SimilarityService: every full BatchSize chunk is
// shipped synchronously and the residue waits in the pending buffer. A nil
// return means shipped batches were accepted by the server; a trailing
// partial batch may still be buffered (the linger ticker or Flush ships
// it). On a ship failure, only the batch that was actually attempted is in
// an ambiguous state (and is not resent — see ship); every batch not yet
// attempted goes back into the pending buffer, so one transport failure
// never silently discards edges that were never put on the wire.
//
// The slice stays the caller's. With nothing pending its whole batches are
// encoded where they lie; what is copied is the head that tops a pending
// buffer up to a batch, the residue, and — should a ship fail — what
// requeue keeps, all of which outlive the call. A user id the binary
// encoding cannot carry (stream.ErrUserRange) refuses the slice whole:
// nothing of it is buffered or sent.
func (c *Client) Ingest(ctx context.Context, edges []vos.Edge) error {
	if err := stream.CheckUsers(edges); err != nil {
		return err
	}
	size := c.opt.BatchSize
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return vos.ErrClosed
	}
	if err := c.pendErr; err != nil {
		c.pendErr = nil
		c.mu.Unlock()
		return err
	}
	// Pending edges go first: top them up to whole batches (more than one
	// after a requeue) and take those; if the slice runs out on the way,
	// all of it is pending now.
	var own []vos.Edge
	if len(c.pend) > 0 {
		head := min((size-len(c.pend)%size)%size, len(edges))
		c.pend = append(c.pend, edges[:head]...)
		edges = edges[head:]
		whole := len(c.pend) - len(c.pend)%size
		own, c.pend = c.pend[:whole:whole], c.pend[whole:]
	}
	direct := edges[:len(edges)-len(edges)%size]
	c.pend = append(c.pend, edges[len(direct):]...)
	if len(c.pend) == 0 {
		c.pend = nil
	}
	c.mu.Unlock()
	if acked, _, err := c.send(ctx, own); err != nil {
		c.requeue(own[min(acked+size, len(own)):], direct)
		return err
	}
	if acked, _, err := c.send(ctx, direct); err != nil {
		c.requeue(direct[min(acked+size, len(direct)):])
		return err
	}
	return nil
}

// Send ships edges now, BatchSize to a request, past the pending buffer,
// and returns how many the server acknowledged: all of them with a nil
// error, otherwise those in the batches before the one that failed. That
// batch is in the ambiguous state of any failed ship (see ship) unless the
// error is a 4xx *Error — the server's word that it applied none of it —
// and nothing is left behind in the client. It is for a caller whose own
// acknowledgement must mean "applied" and whose own error must say how much
// was (the cluster gateway, whose concurrent requests must not ship each
// other's edges); a stream wants Ingest's buffering. The slice stays the
// caller's; a user id the encoding cannot carry (stream.ErrUserRange)
// refuses it whole, before the first request.
//
// span is where the edges landed when every request came back with a span
// (vos.StateSync) chaining on from the one before; empty otherwise.
func (c *Client) Send(ctx context.Context, edges []vos.Edge) (acked int, span vos.SketchSpan, err error) {
	if err := stream.CheckUsers(edges); err != nil {
		return 0, span, err
	}
	return c.send(ctx, edges)
}

// send is Send for edges whose users the caller has checked.
func (c *Client) send(ctx context.Context, edges []vos.Edge) (acked int, span vos.SketchSpan, err error) {
	for acked < len(edges) {
		batch := edges[acked:min(acked+c.opt.BatchSize, len(edges))]
		got, err := c.ship(ctx, batch)
		if err != nil {
			return acked, vos.SketchSpan{}, err
		}
		switch {
		case acked == 0:
			span = got
		case span.After != "" && got.Before == span.After:
			span.After = got.After
		default:
			span = vos.SketchSpan{}
		}
		acked += len(batch)
	}
	return acked, span, nil
}

// requeue puts never-attempted runs of edges back at the head of the
// pending buffer (ahead of anything buffered since — original order
// preserved). It copies: the runs may be the caller's memory, and what is
// kept outlives the call.
func (c *Client) requeue(runs ...[]vos.Edge) {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	if n == 0 {
		return
	}
	c.mu.Lock()
	restored := make([]vos.Edge, 0, n+len(c.pend))
	for _, r := range runs {
		restored = append(restored, r...)
	}
	c.pend = append(restored, c.pend...)
	c.mu.Unlock()
}

// Flush ships the pending partial batch, giving read-your-writes to a
// subsequent query: when it returns nil, every edge buffered before the
// call has been acknowledged, including a batch the linger goroutine was
// shipping when it was called. A parked background-flush error is surfaced
// first, WITHOUT consuming the buffer: edges buffered since that failure
// were never put on the wire, and dropping them alongside the error would
// silently diverge the remote sketch — the caller retries Flush after
// handling the error. (Edges inside a failed attempted ship are
// ambiguous — possibly applied — and are never resent; see ship.)
func (c *Client) Flush(ctx context.Context) error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	return c.flushLocked(ctx)
}

// flushLocked is Flush's body; the caller holds flushMu.
func (c *Client) flushLocked(ctx context.Context) error {
	c.mu.Lock()
	if err := c.pendErr; err != nil {
		c.pendErr = nil
		c.mu.Unlock()
		return err
	}
	out := c.pend
	c.pend = nil
	c.mu.Unlock()
	if len(out) == 0 {
		return nil
	}
	_, err := c.ship(ctx, out)
	return err
}

// Close flushes buffered edges and stops the linger ticker. The client is
// unusable afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
	return c.Flush(context.Background())
}

// ship POSTs one batch in the binary stream format and returns its span, if
// any. Not retried: ingest is an XOR toggle, and a retry after an ambiguous
// failure (request possibly applied) would corrupt parity. Callers that need
// exactly-once on top of an unreliable link should run the server durable.
func (c *Client) ship(ctx context.Context, edges []vos.Edge) (vos.SketchSpan, error) {
	// One buffer of the batch's exact size, not pooled: the transport may
	// still be reading a request body after the response has arrived.
	body, err := stream.AppendBinary(nil, edges)
	if err != nil {
		return vos.SketchSpan{}, err
	}
	raw, hdr, err := c.call(ctx, http.MethodPost, server.RouteEdges, server.ContentTypeBinary, body)
	var ack server.IngestResponse
	if err == nil {
		err = decodeJSON(server.RouteEdges, raw, &ack)
	}
	if err == nil && ack.Accepted != len(edges) {
		err = fmt.Errorf("client: server accepted %d of %d edges", ack.Accepted, len(edges))
	}
	span := vos.SketchSpan{Before: hdr.Get(server.HeaderSketchBefore), After: hdr.Get(server.HeaderSketchCursor)}
	if err != nil || span.Before == "" || span.After == "" {
		return vos.SketchSpan{}, err
	}
	return span, nil
}

// Similarity implements vos.SimilarityService.
func (c *Client) Similarity(ctx context.Context, u, v vos.User) (vos.Estimate, error) {
	return c.similarity(ctx, u, v, "")
}

// SimilarityAt is Similarity asserting the query is about the instant at:
// a sliding-window server answers from the live window only when at is
// still inside it, and errors.Is(err, vos.ErrOutsideWindow) reports an
// instant whose edges have been retired. Against an unwindowed server the
// call fails with a bad_request *Error — there is no retained-time notion
// to check.
func (c *Client) SimilarityAt(ctx context.Context, u, v vos.User, at time.Time) (vos.Estimate, error) {
	return c.similarity(ctx, u, v, formatUnixSeconds(at))
}

// similarity is the shared body of Similarity and SimilarityAt; an empty at
// means no instant assertion.
func (c *Client) similarity(ctx context.Context, u, v vos.User, at string) (est vos.Estimate, err error) {
	path := similarityPath(u, v, at)
	err = c.retry(ctx, func() error {
		raw, _, err := c.call(ctx, http.MethodGet, path, "", nil)
		if err != nil {
			return err
		}
		var ok bool
		if est, ok = server.ScanEstimate(raw); !ok {
			return decodeJSON(path, raw, &est) // not this module's bytes: any valid JSON will do
		}
		return nil
	})
	return est, err
}

// similarityPath is the route and query of a pair read, the bytes
// url.Values.Encode writes for these keys (sorted: at, u, v) without the map.
func similarityPath(u, v vos.User, at string) string {
	b := make([]byte, 0, 80)
	b = append(b, server.RouteSimilarity+"?"...)
	if at != "" {
		b = append(append(append(b, "at="...), at...), '&')
	}
	b = strconv.AppendUint(append(b, "u="...), uint64(u), 10)
	b = strconv.AppendUint(append(b, "&v="...), uint64(v), 10)
	return string(b)
}

// AdvanceWindow drives the remote sliding window's event time forward to
// t, rotating buckets the stream time has moved past — an empty
// timestamped ingest (POST /v1/edges with the X-Vos-Batch-Ts header and
// zero edges). The pending write buffer is flushed first, so edges from
// earlier Ingest calls reach the server on the pre-advance side of the
// rotation instead of being overtaken by it and landing in the fresh
// bucket. A server without a window accepts and ignores the advance.
// Like all ingest it is never retried; re-sending after an ambiguous
// failure is safe, though, since the window never moves backwards.
func (c *Client) AdvanceWindow(ctx context.Context, t time.Time) error {
	if err := c.Flush(ctx); err != nil {
		return err
	}
	body, _ := stream.AppendBinary(nil, nil) // no edge, no user to refuse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+server.RouteEdges, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", server.ContentTypeBinary)
	req.Header.Set(server.HeaderBatchTs, formatUnixSeconds(t))
	_, _, err = c.doRaw(req)
	return err
}

// formatUnixSeconds renders t as the fractional-unix-seconds form the
// /v1/ API's ts and at fields use.
func formatUnixSeconds(t time.Time) string {
	return strconv.FormatFloat(float64(t.UnixNano())/1e9, 'f', -1, 64)
}

// TopK implements vos.SimilarityService. A ranking the server marks as
// covering only part of the state (a gateway with a backend unreachable) is
// an error matching vos.ErrQueryUnavailable, as it is from the in-process
// gateway: the service contract has no silent partial answer.
// ClusterClient.TopKPartial is the opt-in that accepts one.
func (c *Client) TopK(ctx context.Context, u vos.User, candidates []vos.User, n int) ([]vos.TopKResult, error) {
	return c.completeTopK(ctx, server.TopKRequest{User: u, Candidates: candidates, N: n})
}

// TopKAt is TopK asserting the query is about the instant at — the top-K
// counterpart of SimilarityAt, carrying the request body's "at" field: a
// sliding-window server answers from the live window only when at is
// still inside it, errors.Is(err, vos.ErrOutsideWindow) reports an
// instant whose edges have been retired, and an unwindowed server
// rejects the assertion with a bad_request *Error.
func (c *Client) TopKAt(ctx context.Context, u vos.User, candidates []vos.User, n int, at time.Time) ([]vos.TopKResult, error) {
	return c.completeTopK(ctx, server.TopKRequest{User: u, Candidates: candidates, N: n, At: float64(at.UnixNano()) / 1e9})
}

// TopKApprox implements vos.ApproxTopK: candidates-free top-K answered
// from the server's approximate (banded-LSH) index, travelling as
// POST /v1/topk with mode "ann". A server whose backing service has no
// index answers 501 unsupported — errors.Is(err, vos.ErrNoANN) style
// branching is not possible over the wire, so check the *Error code
// ("unsupported") instead.
func (c *Client) TopKApprox(ctx context.Context, u vos.User, n int) ([]vos.TopKResult, error) {
	return c.completeTopK(ctx, server.TopKRequest{User: u, N: n, Mode: "ann"})
}

// completeTopK is postTopK for the callers that promise a ranking over the
// whole state: a partial one is refused.
func (c *Client) completeTopK(ctx context.Context, req server.TopKRequest) ([]vos.TopKResult, error) {
	top, complete, err := c.postTopK(ctx, req)
	if err == nil && !complete {
		return nil, fmt.Errorf("client: %s answered from part of the cluster state (%s): %w",
			server.RouteTopK, server.HeaderPartial, vos.ErrQueryUnavailable)
	}
	return top, err
}

// postTopK is the one sender of /v1/topk: it posts req and returns the
// ranking and whether it covers the whole state (no X-Vos-Partial header).
// Top-K is a read however it is parameterised, so it retries like the GETs
// despite travelling as a POST.
func (c *Client) postTopK(ctx context.Context, req server.TopKRequest) (top []vos.TopKResult, complete bool, err error) {
	body, ok := server.AppendTopKRequest(nil, req)
	if !ok {
		if body, err = json.Marshal(req); err != nil {
			return nil, false, err
		}
	}
	err = c.retry(ctx, func() error {
		raw, hdr, err := c.call(ctx, http.MethodPost, server.RouteTopK, server.ContentTypeJSON, body)
		if err != nil {
			return err
		}
		complete = hdr.Get(server.HeaderPartial) != "true"
		if top, ok = server.ScanTopK(raw); !ok {
			return decodeJSON(server.RouteTopK, raw, &top)
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return top, complete, nil
}

// Cardinality implements vos.SimilarityService.
func (c *Client) Cardinality(ctx context.Context, u vos.User) (int64, error) {
	var resp server.CardinalityResponse
	if err := c.getRetry(ctx, server.RouteCardinality+"?user="+strconv.FormatUint(uint64(u), 10), &resp); err != nil {
		return 0, err
	}
	return resp.Cardinality, nil
}

// Stats implements vos.SimilarityService. A server predating hash_family
// omits it, which decodes to the classic family — all such a server can run;
// a name this build does not know is a decode error, not a wrong answer.
func (c *Client) Stats(ctx context.Context) (vos.Stats, error) {
	var resp server.StatsResponse
	err := c.getRetry(ctx, server.RouteStats, &resp)
	return resp.Stats, err
}

// Checkpoint implements vos.Checkpointer: it asks the remote engine to
// persist a checkpoint and returns the covered WAL position. Not retried
// (not idempotent in cost), though re-running one is safe.
func (c *Client) Checkpoint(ctx context.Context) (uint64, error) {
	var resp server.CheckpointResponse
	err := c.do(ctx, http.MethodPost, server.RouteCheckpoint, "", nil, &resp)
	return resp.Position, err
}

// Ready reports whether the server is in rotation (GET /v1/readyz == 200).
func (c *Client) Ready(ctx context.Context) bool {
	return c.do(ctx, http.MethodGet, server.RouteReadyz, "", nil, nil) == nil
}

// getRetry GETs path and decodes the JSON response into out, retrying per
// the retry policy.
func (c *Client) getRetry(ctx context.Context, path string, out any) error {
	return c.retry(ctx, func() error { return c.do(ctx, http.MethodGet, path, "", nil, out) })
}

// do is call for JSON answers: a 2xx body is decoded into out (out may be
// nil to discard).
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	raw, _, err := c.call(ctx, method, path, contentType, body)
	if err != nil || out == nil {
		return err
	}
	return decodeJSON(path, raw, out)
}

// decodeJSON decodes a 2xx body of path into out.
func decodeJSON(path string, raw []byte, out any) error {
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: decode %s response: %w", path, err)
	}
	return nil
}

// call builds and executes one request to path (route plus query); a
// non-nil body travels as contentType. It returns what doRaw does.
func (c *Client) call(ctx context.Context, method, path, contentType string, body []byte) ([]byte, http.Header, error) {
	var r io.Reader // stays a nil interface when there is no body
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, r)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	return c.doRaw(req)
}

// errResponseTooLarge is a response longer than Client.maxResponse: the same
// answer would come back again, so it is not retried (retryable).
var errResponseTooLarge = errors.New("response exceeds the limit")

// doRaw executes the request and returns a 2xx response's raw body and
// headers, or decodes the error envelope into *Error. It is the transport
// floor under call and do, which every request but the one that sets a
// header of its own (AdvanceWindow) goes through.
func (c *Client) doRaw(req *http.Request) ([]byte, http.Header, error) {
	resp, err := c.opt.HTTPClient.Do(req)
	if err != nil {
		// Surface the caller's context error undecorated so it is never
		// mistaken for a retryable transport failure.
		if ctxErr := req.Context().Err(); ctxErr != nil {
			return nil, nil, ctxErr
		}
		return nil, nil, err
	}
	defer resp.Body.Close()
	// Sized from Content-Length when the server sent one (plus the room
	// ReadFrom wants before it will stop growing), read one byte past the
	// cap so that a longer body is an error and not a prefix.
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= c.maxResponse {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, c.maxResponse+1)); err != nil {
		return nil, nil, err
	}
	if int64(buf.Len()) > c.maxResponse {
		return nil, nil, fmt.Errorf("client: %s %s: %w of %d bytes", req.Method, req.URL.Path, errResponseTooLarge, c.maxResponse)
	}
	body := buf.Bytes()
	if resp.StatusCode >= 400 {
		var env server.ErrorEnvelope
		if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
			return nil, nil, &Error{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
		}
		return nil, nil, &Error{Status: resp.StatusCode, Code: server.CodeInternal,
			Message: fmt.Sprintf("non-envelope response: %.200s", body)}
	}
	return body, resp.Header, nil
}
