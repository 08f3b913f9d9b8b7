package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/server"
)

// countingBackend records /v1/edges calls and their edge counts, and
// serves scripted responses elsewhere.
type countingBackend struct {
	ingests      atomic.Int64
	edges        atomic.Int64
	failSimCalls atomic.Int64 // remaining similarity calls to fail with 500
	simCalls     atomic.Int64
}

func (b *countingBackend) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(server.RouteEdges, func(w http.ResponseWriter, r *http.Request) {
		edges, err := stream.ReadBinary(r.Body)
		if err != nil {
			http.Error(w, err.Error(), 400)
			return
		}
		b.ingests.Add(1)
		b.edges.Add(int64(len(edges)))
		json.NewEncoder(w).Encode(server.IngestResponse{Accepted: len(edges)})
	})
	mux.HandleFunc(server.RouteSimilarity, func(w http.ResponseWriter, r *http.Request) {
		b.simCalls.Add(1)
		if b.failSimCalls.Add(-1) >= 0 {
			w.WriteHeader(500)
			json.NewEncoder(w).Encode(server.ErrorEnvelope{Error: server.ErrorBody{
				Code: server.CodeInternal, Message: "scripted failure"}})
			return
		}
		json.NewEncoder(w).Encode(vos.Estimate{Jaccard: 0.5})
	})
	mux.HandleFunc(server.RouteCardinality, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(400)
		json.NewEncoder(w).Encode(server.ErrorEnvelope{Error: server.ErrorBody{
			Code: server.CodeBadRequest, Message: "scripted 400"}})
	})
	return mux
}

func edge(u, i uint64) vos.Edge {
	return vos.Edge{User: vos.User(u), Item: vos.Item(i), Op: vos.Insert}
}

// TestIngestBatching: full batches ship immediately, the residue waits for
// Flush — the engine's linger-buffer shape on the wire.
func TestIngestBatching(t *testing.T) {
	b := &countingBackend{}
	ts := httptest.NewServer(b.handler())
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{BatchSize: 100, Linger: -1})
	defer cl.Close()

	ctx := context.Background()
	batch := make([]vos.Edge, 250)
	for i := range batch {
		batch[i] = edge(1, uint64(i))
	}
	if err := cl.Ingest(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if got := b.ingests.Load(); got != 2 {
		t.Fatalf("250 edges at BatchSize 100: %d ship requests, want 2", got)
	}
	if got := b.edges.Load(); got != 200 {
		t.Fatalf("shipped %d edges before Flush, want 200", got)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := b.ingests.Load(), int64(3); got != want {
		t.Fatalf("after Flush: %d ship requests, want %d", got, want)
	}
	if got := b.edges.Load(); got != 250 {
		t.Fatalf("shipped %d edges after Flush, want 250", got)
	}
	// Empty flush is a no-op, not a zero-edge request.
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := b.ingests.Load(); got != 3 {
		t.Fatalf("empty Flush shipped a request (total %d)", got)
	}
}

// TestLingerShipsPartialBatches: with a linger interval, a partial batch
// reaches the server without an explicit Flush.
func TestLingerShipsPartialBatches(t *testing.T) {
	b := &countingBackend{}
	ts := httptest.NewServer(b.handler())
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{BatchSize: 1 << 20, Linger: 2 * time.Millisecond})
	defer cl.Close()

	if err := cl.Ingest(context.Background(), []vos.Edge{edge(1, 2)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.edges.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("pending edge never shipped by the linger ticker")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetryOnTransient: 5xx responses on reads are retried with backoff
// until success; the write path never retries.
func TestRetryOnTransient(t *testing.T) {
	b := &countingBackend{}
	b.failSimCalls.Store(2)
	ts := httptest.NewServer(b.handler())
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{MaxRetries: 2, RetryBackoff: time.Millisecond, Linger: -1})
	defer cl.Close()

	est, err := cl.Similarity(context.Background(), 1, 2)
	if err != nil {
		t.Fatalf("similarity after transient failures: %v", err)
	}
	if est.Jaccard != 0.5 {
		t.Fatalf("estimate %+v", est)
	}
	if got := b.simCalls.Load(); got != 3 {
		t.Fatalf("%d attempts, want 3 (2 failures + success)", got)
	}
}

// TestRetryExhaustion: when every attempt fails, the last typed error
// surfaces.
func TestRetryExhaustion(t *testing.T) {
	b := &countingBackend{}
	b.failSimCalls.Store(100)
	ts := httptest.NewServer(b.handler())
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{MaxRetries: 1, RetryBackoff: time.Millisecond, Linger: -1})
	defer cl.Close()

	_, err := cl.Similarity(context.Background(), 1, 2)
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Status != 500 || apiErr.Code != server.CodeInternal {
		t.Fatalf("want *client.Error 500/internal, got %v", err)
	}
	if got := b.simCalls.Load(); got != 2 {
		t.Fatalf("%d attempts, want 2 (MaxRetries=1)", got)
	}
}

// TestNoRetryOn4xx: a 4xx envelope is the caller's bug; exactly one
// attempt, typed error back.
func TestNoRetryOn4xx(t *testing.T) {
	b := &countingBackend{}
	ts := httptest.NewServer(b.handler())
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{MaxRetries: 5, RetryBackoff: time.Millisecond, Linger: -1})
	defer cl.Close()

	_, err := cl.Cardinality(context.Background(), 1)
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Code != server.CodeBadRequest {
		t.Fatalf("want *client.Error 400/bad_request, got %v", err)
	}
}

// TestErrorSentinelMapping: envelope codes map back onto the vos and
// context sentinels through errors.Is, so remote and in-process services
// fail the same way to callers.
func TestErrorSentinelMapping(t *testing.T) {
	cases := []struct {
		code   string
		status int
		target error
	}{
		{server.CodeUnavailable, 503, vos.ErrClosed},
		{server.CodeUnavailable, 503, vos.ErrQueryUnavailable},
		{server.CodeDraining, 503, vos.ErrQueryUnavailable},
		{server.CodeCanceled, server.StatusClientClosedRequest, context.Canceled},
		{server.CodeTimeout, 504, context.DeadlineExceeded},
	}
	for _, tc := range cases {
		err := &client.Error{Status: tc.status, Code: tc.code, Message: "x"}
		if !errors.Is(err, tc.target) {
			t.Errorf("code %q should match %v via errors.Is", tc.code, tc.target)
		}
	}
	err := &client.Error{Status: 400, Code: server.CodeBadRequest, Message: "x"}
	if errors.Is(err, vos.ErrClosed) {
		t.Error("bad_request must not match ErrClosed")
	}
	// Draining is transient rotation, not engine shutdown: it must stay
	// distinguishable from a genuinely closed engine.
	err = &client.Error{Status: 503, Code: server.CodeDraining, Message: "x"}
	if errors.Is(err, vos.ErrClosed) {
		t.Error("draining must not match ErrClosed")
	}
}

// TestNonEnvelopeError: a non-JSON error body still comes back typed.
func TestNonEnvelopeError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text panic page", http.StatusBadGateway)
	}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{MaxRetries: -1, Linger: -1})
	defer cl.Close()

	_, err := cl.Stats(context.Background())
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("want *client.Error with status 502, got %v", err)
	}
}

// TestContextCancellationNotRetried: a cancelled context surfaces
// immediately as context.Canceled, never as a retry loop.
func TestContextCancellationNotRetried(t *testing.T) {
	calls := atomic.Int64{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		<-r.Context().Done()
	}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{MaxRetries: 5, RetryBackoff: time.Millisecond, Linger: -1})
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := cl.Similarity(ctx, 1, 2)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d attempts on a dead context, want 1", got)
	}
}

// TestClosedClient: Ingest after Close returns the lifecycle sentinel.
func TestClosedClient(t *testing.T) {
	b := &countingBackend{}
	ts := httptest.NewServer(b.handler())
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{Linger: -1})
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := cl.Ingest(context.Background(), []vos.Edge{edge(1, 2)}); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Ingest after Close: want ErrClosed, got %v", err)
	}
}

// TestCloseFlushes: edges buffered below BatchSize still reach the server
// when the client closes.
func TestCloseFlushes(t *testing.T) {
	b := &countingBackend{}
	ts := httptest.NewServer(b.handler())
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{BatchSize: 1 << 20, Linger: -1})
	if err := cl.Ingest(context.Background(), []vos.Edge{edge(1, 2), edge(3, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if got := b.edges.Load(); got != 2 {
		t.Fatalf("%d edges shipped by Close, want 2", got)
	}
}

// TestReady probes readiness against a real server before and after Drain.
func TestReady(t *testing.T) {
	eng, err := vos.NewEngine(vos.EngineConfig{Sketch: vos.Config{MemoryBits: 1 << 16, SketchBits: 128, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(vos.NewEngineService(eng), server.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{Linger: -1})
	defer cl.Close()

	ctx := context.Background()
	if !cl.Ready(ctx) {
		t.Fatal("fresh server not ready")
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if cl.Ready(ctx) {
		t.Fatal("drained server still reports ready")
	}
}

// TestAgainstRealServer drives the client against the real server+engine
// stack: TopK parity with the in-process engine, and Checkpoint against a
// memory-only engine surfacing the typed unsupported error.
func TestAgainstRealServer(t *testing.T) {
	eng, err := vos.NewEngine(vos.EngineConfig{
		Sketch: vos.Config{MemoryBits: 1 << 18, SketchBits: 512, Seed: 7},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{BatchSize: 64, Linger: -1})
	defer cl.Close()

	ctx := context.Background()
	var edges []vos.Edge
	for u := uint64(1); u <= 20; u++ {
		for i := uint64(0); i < 30; i++ {
			edges = append(edges, edge(u, u*10+i))
		}
	}
	if err := cl.Ingest(ctx, edges); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	candidates := []vos.User{2, 3, 4, 5, 6, 7, 8, 9, 10}
	got, err := cl.TopK(ctx, 1, candidates, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := eng.TopK(1, candidates, 4)
	if len(got) != len(want) {
		t.Fatalf("TopK sizes: wire %d, in-process %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("TopK[%d]: wire %+v, in-process %+v", i, got[i], want[i])
		}
	}

	// Memory-only engine: checkpoint is the capability gap, typed.
	_, err = cl.Checkpoint(ctx)
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Code != server.CodeUnsupported {
		t.Fatalf("Checkpoint on memory-only engine: want unsupported envelope, got %v", err)
	}
	if apiErr.Error() == "" || apiErr.Status != http.StatusNotImplemented {
		t.Fatalf("error formatting: %+v", apiErr)
	}
}

// TestLingerErrorSurfaces: a background flush failure is parked and
// returned by the next Ingest instead of vanishing.
func TestLingerErrorSurfaces(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(500)
		json.NewEncoder(w).Encode(server.ErrorEnvelope{Error: server.ErrorBody{
			Code: server.CodeInternal, Message: "scripted ingest failure"}})
	}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{BatchSize: 1 << 20, Linger: time.Millisecond})
	defer cl.Close()

	if err := cl.Ingest(context.Background(), []vos.Edge{edge(1, 2)}); err != nil {
		t.Fatal(err) // buffered only, no wire contact yet
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := cl.Ingest(context.Background(), nil)
		if err != nil {
			var apiErr *client.Error
			if !errors.As(err, &apiErr) || apiErr.Code != server.CodeInternal {
				t.Fatalf("parked linger error: got %v", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("background flush error never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShipAcceptedMismatch: a server that under-acknowledges is an error,
// not a silent partial write.
func TestShipAcceptedMismatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.IngestResponse{Accepted: 0})
	}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{BatchSize: 1, Linger: -1})
	defer cl.Close()
	err := cl.Ingest(context.Background(), []vos.Edge{edge(1, 2)})
	if err == nil || !strings.Contains(err.Error(), "accepted 0 of 1") {
		t.Fatalf("under-acknowledged batch: got %v", err)
	}
}

// TestIngestRequeuesUnattemptedBatches: when an early batch's ship fails,
// batches that were never attempted return to the buffer instead of being
// silently dropped — only the ambiguous (attempted) batch is lost to the
// no-retry policy.
func TestIngestRequeuesUnattemptedBatches(t *testing.T) {
	var calls, edgesSeen atomic.Int64
	failFirst := atomic.Bool{}
	failFirst.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if failFirst.CompareAndSwap(true, false) {
			w.WriteHeader(500)
			json.NewEncoder(w).Encode(server.ErrorEnvelope{Error: server.ErrorBody{
				Code: server.CodeInternal, Message: "scripted"}})
			return
		}
		edges, err := stream.ReadBinary(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		edgesSeen.Add(int64(len(edges)))
		json.NewEncoder(w).Encode(server.IngestResponse{Accepted: len(edges)})
	}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{BatchSize: 10, Linger: -1})
	defer cl.Close()

	batch := make([]vos.Edge, 30) // 3 full batches
	for i := range batch {
		batch[i] = edge(1, uint64(i))
	}
	ctx := context.Background()
	if err := cl.Ingest(ctx, batch); err == nil {
		t.Fatal("first Ingest should surface the scripted failure")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d ship attempts after failure, want 1 (no write retries)", got)
	}
	// Batches 2 and 3 (20 edges) must still be buffered: Flush delivers
	// them. Batch 1 (10 edges) was attempted and is ambiguous — gone.
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := edgesSeen.Load(); got != 20 {
		t.Fatalf("server saw %d edges after recovery Flush, want 20 (the 2 unattempted batches)", got)
	}
}

// TestFlushKeepsBufferOnParkedError: Flush surfacing a parked background
// error must not consume edges buffered after the failure — the next
// Flush delivers them.
func TestFlushKeepsBufferOnParkedError(t *testing.T) {
	var edgesSeen atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			w.WriteHeader(500)
			json.NewEncoder(w).Encode(server.ErrorEnvelope{Error: server.ErrorBody{
				Code: server.CodeInternal, Message: "scripted"}})
			return
		}
		edges, err := stream.ReadBinary(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		edgesSeen.Add(int64(len(edges)))
		json.NewEncoder(w).Encode(server.IngestResponse{Accepted: len(edges)})
	}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{BatchSize: 1 << 20, Linger: time.Millisecond})
	defer cl.Close()

	ctx := context.Background()
	if err := cl.Ingest(ctx, []vos.Edge{edge(1, 2)}); err != nil {
		t.Fatal(err) // buffered; the linger ticker will attempt and fail
	}
	// Wait for a background failure to park.
	deadline := time.Now().Add(5 * time.Second)
	var parked error
	for parked == nil {
		if time.Now().After(deadline) {
			t.Fatal("no background error parked")
		}
		time.Sleep(2 * time.Millisecond)
		cl2 := cl // parked error surfaces via Flush
		if err := cl2.Flush(ctx); err != nil {
			parked = err
		}
	}
	// Buffer a fresh edge AFTER the failure; heal the server; Flush must
	// deliver it even though the previous Flush returned the parked error.
	fail.Store(false)
	if err := cl.Ingest(ctx, []vos.Edge{edge(3, 4)}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for edgesSeen.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("post-failure edge never delivered")
		}
		if err := cl.Flush(ctx); err != nil {
			t.Logf("flush during recovery: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFlushWaitsForInFlightShip pins read-your-writes against the linger
// goroutine: once it has taken the pending batch and is mid-ship, the
// buffer is empty, but a Flush that returned now would promise a write the
// server has not applied yet. Flush must not return before that ship does.
func TestFlushWaitsForInFlightShip(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var applied atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		edges, err := stream.ReadBinary(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		close(entered) // the only batch: a second request would panic here
		<-release
		applied.Store(true)
		json.NewEncoder(w).Encode(server.IngestResponse{Accepted: len(edges)})
	}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{BatchSize: 1 << 20, Linger: time.Millisecond})
	defer cl.Close()
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // before Close, which waits for the parked ship

	ctx := context.Background()
	if err := cl.Ingest(ctx, []vos.Edge{edge(1, 2)}); err != nil {
		t.Fatal(err)
	}
	<-entered // the linger goroutine took the batch and is on the wire
	flushed := make(chan error, 1)
	go func() { flushed <- cl.Flush(ctx) }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (%v) with the only batch still on the wire", err)
	case <-time.After(100 * time.Millisecond):
	}
	unpark()
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if !applied.Load() {
		t.Fatal("Flush returned before the server applied the batch")
	}
}

// TestSendShipsNowAndReportsAcked: Send goes past the pending buffer in
// BatchSize requests, says how many edges were acknowledged when a batch
// fails, and leaves nothing behind for a later Flush to ship.
func TestSendShipsNowAndReportsAcked(t *testing.T) {
	b := &countingBackend{}
	var refuseFrom atomic.Int64 // refuse every ingest once this many were served; 0 = never
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := refuseFrom.Load(); n > 0 && b.ingests.Load() >= n {
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.ErrorEnvelope{Error: server.ErrorBody{
				Code: server.CodeBackpressure, Message: "scripted refusal"}})
			return
		}
		b.handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{BatchSize: 2, Linger: -1})
	defer cl.Close()
	ctx := context.Background()
	five := []vos.Edge{edge(1, 1), edge(1, 2), edge(2, 1), edge(2, 2), edge(3, 1)}

	if acked, _, err := cl.Send(ctx, five); err != nil || acked != 5 {
		t.Fatalf("Send = %d, %v; want 5, nil", acked, err)
	}
	if b.ingests.Load() != 3 || b.edges.Load() != 5 {
		t.Fatalf("5 edges at batch size 2 took %d requests carrying %d edges, want 3 and 5", b.ingests.Load(), b.edges.Load())
	}

	refuseFrom.Store(4) // one more batch, then refusals
	acked, _, err := cl.Send(ctx, five)
	var apiErr *client.Error
	if acked != 2 || !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("Send = %d, %v; want 2 acknowledged and the server's 429", acked, err)
	}
	refuseFrom.Store(0)
	if err := cl.Flush(ctx); err != nil || b.ingests.Load() != 4 {
		t.Fatalf("Flush after a failed Send: %v, %d requests served; Send must leave nothing buffered", err, b.ingests.Load())
	}
}
