package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/admit"
	"github.com/vossketch/vos/server"
)

func testEngineConfig() vos.EngineConfig {
	return vos.EngineConfig{
		Sketch:    vos.Config{MemoryBits: 1 << 18, SketchBits: 512, Seed: 7},
		Shards:    3,
		BatchSize: 64,
	}
}

// feasibleStream generates n edges over the given user count with delFrac
// unsubscriptions of live edges, so every prefix is feasible.
func feasibleStream(n, users int, delFrac float64, seed int64) []vos.Edge {
	rng := rand.New(rand.NewSource(seed))
	type key struct {
		u vos.User
		i vos.Item
	}
	liveList := make([]key, 0, n)
	liveIdx := make(map[key]int, n)
	out := make([]vos.Edge, 0, n)
	for len(out) < n {
		if len(liveList) > 0 && rng.Float64() < delFrac {
			pos := rng.Intn(len(liveList))
			k := liveList[pos]
			last := len(liveList) - 1
			liveList[pos] = liveList[last]
			liveIdx[liveList[pos]] = pos
			liveList = liveList[:last]
			delete(liveIdx, k)
			out = append(out, vos.Edge{User: k.u, Item: k.i, Op: vos.Delete})
			continue
		}
		k := key{vos.User(rng.Intn(users)), vos.Item(rng.Uint64() % 100_000)}
		if _, dup := liveIdx[k]; dup {
			continue
		}
		liveIdx[k] = len(liveList)
		liveList = append(liveList, k)
		out = append(out, vos.Edge{User: k.u, Item: k.i, Op: vos.Insert})
	}
	return out
}

// newWired builds an engine-backed server plus a client over a loopback
// listener. The cleanup order matters: client first (flushes), then
// listener, then engine.
func newWired(t *testing.T, opts server.Options, clOpts client.Options) (*vos.Engine, *client.Client, string) {
	t.Helper()
	eng, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), opts))
	cl := client.New(ts.URL, clOpts)
	t.Cleanup(func() {
		cl.Close()
		ts.Close()
		eng.Close()
	})
	return eng, cl, ts.URL
}

// TestWireParity is the acceptance gate: the same insert+delete stream fed
// once to an in-process engine and once through client→server→engine must
// produce bit-identical answers for similarity, top-K, and cardinality.
// Estimates are comparable structs of float64s, so == is bit equality
// (JSON carries shortest-round-trip decimals, no precision is lost).
func TestWireParity(t *testing.T) {
	ctx := context.Background()
	direct, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	_, cl, _ := newWired(t, server.Options{}, client.Options{BatchSize: 100})

	edges := feasibleStream(12_000, 80, 0.3, 5)
	if err := direct.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	direct.Flush()
	if err := cl.Ingest(ctx, edges); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	for u := vos.User(0); u < 30; u++ {
		for v := u + 1; v < 30; v += 5 {
			got, err := cl.Similarity(ctx, u, v)
			if err != nil {
				t.Fatalf("Similarity(%d,%d): %v", u, v, err)
			}
			if want := direct.Query(u, v); got != want {
				t.Fatalf("Similarity(%d,%d) over the wire %+v, in-process %+v", u, v, got, want)
			}
		}
		gotCard, err := cl.Cardinality(ctx, u)
		if err != nil {
			t.Fatalf("Cardinality(%d): %v", u, err)
		}
		if want := direct.Cardinality(u); gotCard != want {
			t.Fatalf("Cardinality(%d) over the wire %d, in-process %d", u, gotCard, want)
		}
	}

	candidates := make([]vos.User, 60)
	for i := range candidates {
		candidates[i] = vos.User(i)
	}
	gotTop, err := cl.TopK(ctx, 3, candidates, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantTop := direct.TopK(3, candidates, 10)
	if !reflect.DeepEqual(gotTop, wantTop) {
		t.Fatalf("TopK over the wire %+v, in-process %+v", gotTop, wantTop)
	}

	gotStats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := direct.Stats(); gotStats != want {
		t.Fatalf("Stats over the wire %+v, in-process %+v", gotStats, want)
	}
}

// TestStatsHashFamilyOnWire: /v1/stats reports the sketch's hash family
// and the client decodes it back to the typed value, for both families —
// so operators can confirm what a remote daemon was configured with before
// pointing checkpointed state at it.
func TestStatsHashFamilyOnWire(t *testing.T) {
	ctx := context.Background()
	for _, fam := range []vos.HashFamily{vos.FamilyClassic, vos.FamilyFast} {
		cfg := testEngineConfig()
		cfg.Sketch.Family = fam
		eng, err := vos.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
		cl := client.New(ts.URL, client.Options{})

		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var wire struct {
			HashFamily string `json:"hash_family"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if wire.HashFamily != fam.String() {
			t.Errorf("hash_family on the wire = %q, want %q", wire.HashFamily, fam.String())
		}
		st, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Family != fam {
			t.Errorf("client Stats().Family = %v, want %v", st.Family, fam)
		}
		cl.Close()
		ts.Close()
		eng.Close()
	}
	// An absent hash_family (a server predating the field) decodes to the
	// classic family rather than an error; a name this build does not know
	// is an error rather than a wrong family.
	var old server.StatsResponse
	if err := json.Unmarshal([]byte(`{"memory_bits":1024,"sketch_bits":64}`), &old); err != nil {
		t.Fatal(err)
	}
	if got := old.Family; got != vos.FamilyClassic {
		t.Errorf("absent hash_family decodes to %v, want classic", got)
	}
	if err := json.Unmarshal([]byte(`{"memory_bits":1024,"hash_family":"murmur"}`), &old); err == nil {
		t.Errorf("unknown hash_family decoded to %v, want an error", old.Family)
	}
}

// TestStatsSnapshotOnWire: /v1/stats carries the engine's snapshot
// maintenance counters — after the two re-merges that build the resident
// views, a read that follows a write shows up as a replay — and leaves the
// object out for a service that hides its engine behind the bare interface.
func TestStatsSnapshotOnWire(t *testing.T) {
	ctx := context.Background()
	eng, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{})
	defer cl.Close()

	stats := func(url string) server.StatsResponse {
		t.Helper()
		resp, err := http.Get(url + server.RouteStats)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var wire server.StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			t.Fatal(err)
		}
		return wire
	}
	for i := 0; i < 3; i++ {
		if err := cl.Ingest(ctx, feasibleStream(40, 20, 0, int64(i+1))); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Similarity(ctx, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	got := stats(ts.URL).Snapshot
	if got == nil {
		t.Fatal("engine-backed /v1/stats has no snapshot object")
	}
	if want := eng.SnapshotStats(); *got != want {
		t.Fatalf("snapshot on the wire %+v, in-process %+v", *got, want)
	}
	if got.RebuildsFirst != 1 || got.Replays != 2 || got.ReplayedEdges != 80 || got.Rebuilds() != 1 {
		t.Fatalf("three reads after writes should be one first re-merge and two 40-edge replays: %+v", *got)
	}

	// A service that offers no capability beyond SimilarityService.
	bare, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	plain := httptest.NewServer(server.New(struct{ vos.SimilarityService }{vos.NewEngineService(bare)}, server.Options{}))
	defer plain.Close()
	if snap := stats(plain.URL).Snapshot; snap != nil {
		t.Fatalf("capability-less /v1/stats carries a snapshot object: %+v", *snap)
	}
}

// TestIngestFormats: the JSON single-object, JSON array, and NDJSON bodies
// all land edges, and all agree with the binary path the client uses.
func TestIngestFormats(t *testing.T) {
	eng, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	defer ts.Close()

	post := func(contentType, body string) (*http.Response, server.IngestResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+server.RouteEdges, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ack server.IngestResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
				t.Fatal(err)
			}
		}
		return resp, ack
	}

	if resp, ack := post(server.ContentTypeJSON, `{"user":1,"item":10}`); resp.StatusCode != 200 || ack.Accepted != 1 {
		t.Fatalf("single JSON edge: status %d, ack %+v", resp.StatusCode, ack)
	}
	if resp, ack := post(server.ContentTypeJSON, `[{"user":1,"item":11},{"user":2,"item":10,"op":"+"}]`); resp.StatusCode != 200 || ack.Accepted != 2 {
		t.Fatalf("JSON array: status %d, ack %+v", resp.StatusCode, ack)
	}
	if resp, ack := post(server.ContentTypeNDJSON, "{\"user\":1,\"item\":12}\n\n{\"user\":1,\"item\":12,\"op\":\"-\"}\n"); resp.StatusCode != 200 || ack.Accepted != 2 {
		t.Fatalf("NDJSON: status %d, ack %+v", resp.StatusCode, ack)
	}

	cl := client.New(ts.URL, client.Options{})
	defer cl.Close()
	card, err := cl.Cardinality(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if card != 2 { // items 10, 11 live; 12 inserted then deleted
		t.Fatalf("cardinality after mixed-format ingest = %d, want 2", card)
	}
}

// errorCode POSTs/GETs raw and returns status plus envelope code.
func errorCode(t *testing.T, method, url, contentType, body string) (int, string) {
	t.Helper()
	var req *http.Request
	var err error
	if body == "" {
		req, err = http.NewRequest(method, url, nil)
	} else {
		req, err = http.NewRequest(method, url, strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env server.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s %s: non-envelope error body: %v", method, url, err)
	}
	return resp.StatusCode, env.Error.Code
}

// TestErrorEnvelope walks the 4xx surface: every failure is the typed
// envelope with the right code.
func TestErrorEnvelope(t *testing.T) {
	eng, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{Admission: admit.NewController(1<<10, 0)}))
	defer ts.Close()

	cases := []struct {
		name, method, path, ct, body string
		status                       int
		code                         string
	}{
		{"malformed JSON edge", "POST", server.RouteEdges, server.ContentTypeJSON, `{"user":`, 400, server.CodeBadRequest},
		{"unknown op", "POST", server.RouteEdges, server.ContentTypeJSON, `{"user":1,"item":2,"op":"x"}`, 400, server.CodeBadRequest},
		{"unknown field", "POST", server.RouteEdges, server.ContentTypeJSON, `{"user":1,"itm":2}`, 400, server.CodeBadRequest},
		{"NDJSON unknown field", "POST", server.RouteEdges, server.ContentTypeNDJSON, "{\"usr\":1,\"item\":2}\n", 400, server.CodeBadRequest},
		{"NDJSON concatenated objects", "POST", server.RouteEdges, server.ContentTypeNDJSON, "{\"user\":1,\"item\":2}{\"user\":3,\"item\":4}\n", 400, server.CodeBadRequest},
		{"JSON trailing garbage", "POST", server.RouteEdges, server.ContentTypeJSON, `{"user":1,"item":2}{"user":3,"item":4}`, 400, server.CodeBadRequest},
		{"JSON array trailing garbage", "POST", server.RouteEdges, server.ContentTypeJSON, `[{"user":1,"item":2}]]`, 400, server.CodeBadRequest},
		{"forged binary count", "POST", server.RouteEdges, server.ContentTypeBinary, "VOSSTRM1\x80\x80\x80\x80\x04", 400, server.CodeBadRequest},
		{"bad content type", "POST", server.RouteEdges, "text/csv", "1,2,+", 400, server.CodeBadRequest},
		{"bad binary", "POST", server.RouteEdges, server.ContentTypeBinary, "not the magic", 400, server.CodeBadRequest},
		{"malformed topk", "POST", server.RouteTopK, server.ContentTypeJSON, `{"user":}`, 400, server.CodeBadRequest},
		{"empty candidates", "POST", server.RouteTopK, server.ContentTypeJSON, `{"user":1,"candidates":[],"n":3}`, 400, server.CodeBadRequest},
		{"bad similarity params", "GET", server.RouteSimilarity + "?u=alice&v=2", "", "", 400, server.CodeBadRequest},
		{"missing cardinality param", "GET", server.RouteCardinality, "", "", 400, server.CodeBadRequest},
		{"wrong method", "GET", server.RouteEdges, "", "", 405, server.CodeMethodNotAllowed},
		{"no such route", "GET", "/v2/edges", "", "", 404, server.CodeNotFound},
		{"oversized batch", "POST", server.RouteEdges, server.ContentTypeJSON, `[` + strings.Repeat(`{"user":1,"item":2},`, 100) + `{"user":1,"item":2}]`, 413, server.CodeTooLarge},
		{"checkpoint on memory-only engine", "POST", server.RouteCheckpoint, "", "", 501, server.CodeUnsupported},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code := errorCode(t, tc.method, ts.URL+tc.path, tc.ct, tc.body)
			if status != tc.status || code != tc.code {
				t.Fatalf("got %d/%s, want %d/%s", status, code, tc.status, tc.code)
			}
		})
	}
}

// TestTopKBodyIsStrict: POST /v1/topk reads its body as strictly as every
// other route — a misspelt field (an "at" assertion that would otherwise be
// dropped in silence) and data after the object are refused, and a body over
// the admission controller's batch cap is 413 too_large as it is on POST
// /v1/edges.
func TestTopKBodyIsStrict(t *testing.T) {
	eng, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{Admission: admit.NewController(1<<10, 0)}))
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"misspelt field", `{"user":1,"candidates":[2,3],"n":1,"att":12345}`, 400, server.CodeBadRequest},
		{"trailing data", `{"user":1,"candidates":[2,3],"n":1} {"user":9}`, 400, server.CodeBadRequest},
		{"oversized", `{"user":1,"candidates":[2` + strings.Repeat(",3", 1<<10) + `],"n":1}`, 413, server.CodeTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, code := errorCode(t, http.MethodPost, ts.URL+server.RouteTopK, server.ContentTypeJSON, tc.body)
			if status != tc.status || code != tc.code {
				t.Fatalf("got %d/%s, want %d/%s", status, code, tc.status, tc.code)
			}
		})
	}
}

// TestBinaryWorstCaseTooLarge: a binary batch whose worst-case decoded
// footprint (~13x wire bytes) exceeds the whole in-flight budget can never
// be admitted, so it must get a deterministic 413 telling the caller to
// split — not an unwinnable 429 loop, and no decode-sized allocation.
func TestBinaryWorstCaseTooLarge(t *testing.T) {
	eng, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{
		Admission: admit.NewController(1<<20, 1<<20),
	}))
	defer ts.Close()

	// 512 KiB wire is under the batch cap but holds up to 512Ki/2 edges,
	// a ~6 MiB decoded slice — far over the 1 MiB budget. The body is
	// never read, so junk bytes suffice.
	status, code := errorCode(t, http.MethodPost, ts.URL+server.RouteEdges,
		server.ContentTypeBinary, strings.Repeat("x", 512<<10))
	if status != http.StatusRequestEntityTooLarge || code != server.CodeTooLarge {
		t.Fatalf("unadmittable binary batch: got %d/%s, want 413/%s", status, code, server.CodeTooLarge)
	}
}

// TestDefaultBodyCap: a server built without an admission controller takes
// admit's default batch cap. A binary POST that promises one byte more is
// 413 too_large before a byte is read; one that promises exactly the cap is
// admitted and read, and then refused (400) only because the body never
// came.
func TestDefaultBodyCap(t *testing.T) {
	eng, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(vos.NewEngineService(eng), server.Options{})
	for _, tc := range []struct {
		promised int64
		status   int
		code     string
		msg      string
	}{
		{admit.DefaultMaxBatchBytes + 1, http.StatusRequestEntityTooLarge, server.CodeTooLarge, "limit"},
		{admit.DefaultMaxBatchBytes, http.StatusBadRequest, server.CodeBadRequest, "ends after 0 of"},
	} {
		req := httptest.NewRequest(http.MethodPost, server.RouteEdges, http.NoBody)
		req.Header.Set("Content-Type", server.ContentTypeBinary)
		req.ContentLength = tc.promised
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var env server.ErrorEnvelope
		if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if rec.Code != tc.status || env.Error.Code != tc.code || !strings.Contains(env.Error.Message, tc.msg) {
			t.Errorf("Content-Length %d: got %d/%s %q, want %d/%s containing %q",
				tc.promised, rec.Code, env.Error.Code, env.Error.Message, tc.status, tc.code, tc.msg)
		}
	}
}

// TestChunkedBinaryRequiresLength: a binary body of unknown length would
// have to charge the cap-derived worst case (~13x the batch cap) no matter
// how small it really is, so the server demands Content-Length up front.
func TestChunkedBinaryRequiresLength(t *testing.T) {
	eng, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+server.RouteEdges, &chunkedReader{s: "VOSSTRM1"})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", server.ContentTypeBinary)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env server.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusLengthRequired || env.Error.Code != server.CodeBadRequest {
		t.Fatalf("chunked binary: got %d/%s, want 411/%s", resp.StatusCode, env.Error.Code, server.CodeBadRequest)
	}
}

// TestCancelledContext: a request whose context is already cancelled gets
// the canceled envelope — the service saw ctx.Err(), not a zero answer.
func TestCancelledContext(t *testing.T) {
	eng, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(vos.NewEngineService(eng), server.Options{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, path := range []string{
		server.RouteSimilarity + "?u=1&v=2",
		server.RouteCardinality + "?user=1",
		server.RouteStats,
	} {
		req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var env server.ErrorEnvelope
		if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if rec.Code != server.StatusClientClosedRequest || env.Error.Code != server.CodeCanceled {
			t.Fatalf("%s with cancelled ctx: got %d/%s, want %d/%s",
				path, rec.Code, env.Error.Code, server.StatusClientClosedRequest, server.CodeCanceled)
		}
	}

	body, _ := json.Marshal(server.TopKRequest{User: 1, Candidates: []vos.User{2, 3}, N: 1})
	req := httptest.NewRequest(http.MethodPost, server.RouteTopK, bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", server.ContentTypeJSON)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != server.StatusClientClosedRequest {
		t.Fatalf("topk with cancelled ctx: status %d, want %d", rec.Code, server.StatusClientClosedRequest)
	}
}

// blockingService blocks Ingest until released — the deterministic way to
// hold in-flight bytes and observe backpressure.
type blockingService struct {
	vos.SimilarityService
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (b *blockingService) Ingest(ctx context.Context, edges []vos.Edge) error {
	b.once.Do(func() { close(b.entered) })
	<-b.release // closed channel after release: later ingests pass through
	return nil
}

// TestBackpressure: while one ingest holds the whole in-flight budget, a
// second gets 429/backpressure with a Retry-After hint; after release it
// succeeds.
func TestBackpressure(t *testing.T) {
	eng, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	blocker := &blockingService{
		SimilarityService: vos.NewEngineService(eng),
		entered:           make(chan struct{}),
		release:           make(chan struct{}),
	}
	ts := httptest.NewServer(server.New(blocker, server.Options{
		Admission: admit.NewController(1<<10, 1<<10),
	}))
	defer ts.Close()

	body := `{"user":1,"item":2}`
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Chunked (no Content-Length) charges the full batch cap, so
		// this one request drains the budget no matter how small it is.
		req, err := http.NewRequest(http.MethodPost, ts.URL+server.RouteEdges, &chunkedReader{s: body})
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set("Content-Type", server.ContentTypeJSON)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	}()
	<-blocker.entered

	status, code := errorCode(t, http.MethodPost, ts.URL+server.RouteEdges, server.ContentTypeJSON, body)
	if status != http.StatusTooManyRequests || code != server.CodeBackpressure {
		t.Fatalf("concurrent ingest got %d/%s, want 429/%s", status, code, server.CodeBackpressure)
	}

	close(blocker.release)
	wg.Wait()
	resp, err := http.Post(ts.URL+server.RouteEdges, server.ContentTypeJSON, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after release: status %d", resp.StatusCode)
	}
}

// chunkedReader defeats net/http's Content-Length sniffing so the request
// goes out chunked.
type chunkedReader struct{ s string }

func (r *chunkedReader) Read(p []byte) (int, error) {
	if r.s == "" {
		return 0, io.EOF
	}
	n := copy(p, r.s)
	r.s = r.s[n:]
	return n, nil
}

func (r *chunkedReader) Close() error { return nil }

// TestHealthAndDrain: readiness flips on Drain, drained servers reject API
// calls with 503/unavailable but keep answering health probes.
func TestHealthAndDrain(t *testing.T) {
	eng, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(vos.NewEngineService(eng), server.Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) (int, server.HealthResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h server.HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}
	if status, h := get(server.RouteHealthz); status != 200 || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", status, h)
	}
	if status, h := get(server.RouteReadyz); status != 200 || h.Status != "ok" {
		t.Fatalf("readyz: %d %+v", status, h)
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if status, h := get(server.RouteReadyz); status != 503 || h.Status != "draining" {
		t.Fatalf("readyz while draining: %d %+v", status, h)
	}
	if status, h := get(server.RouteHealthz); status != 200 || h.Status != "ok" {
		t.Fatalf("healthz while draining: %d %+v", status, h)
	}
	if status, code := errorCode(t, http.MethodGet, ts.URL+server.RouteSimilarity+"?u=1&v=2", "", ""); status != 503 || code != server.CodeDraining {
		t.Fatalf("query while draining: %d/%s, want 503/%s", status, code, server.CodeDraining)
	}
	// Idempotent.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestClosedEngine: queries against a closed engine surface ErrClosed as
// 503/unavailable — the typed replacement for racing Close into a panic or
// a zero estimate.
func TestClosedEngine(t *testing.T) {
	eng, err := vos.OpenEngine(t.TempDir(), testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	defer ts.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if status, code := errorCode(t, http.MethodGet, ts.URL+server.RouteSimilarity+"?u=1&v=2", "", ""); status != 503 || code != server.CodeUnavailable {
		t.Fatalf("query on closed engine: %d/%s, want 503/%s", status, code, server.CodeUnavailable)
	}
	if status, code := errorCode(t, http.MethodPost, ts.URL+server.RouteEdges, server.ContentTypeJSON, `{"user":1,"item":2}`); status != 503 || code != server.CodeUnavailable {
		t.Fatalf("ingest on closed engine: %d/%s, want 503/%s", status, code, server.CodeUnavailable)
	}
	if status, code := errorCode(t, http.MethodPost, ts.URL+server.RouteCheckpoint, "", ""); status != 503 || code != server.CodeUnavailable {
		t.Fatalf("checkpoint on closed engine: %d/%s, want 503/%s", status, code, server.CodeUnavailable)
	}
}

// TestMetricsEndpoint: counters move, errors are counted, and the rate
// window arms on first scrape.
func TestMetricsEndpoint(t *testing.T) {
	_, cl, base := newWired(t, server.Options{}, client.Options{})
	ctx := context.Background()
	if err := cl.Ingest(ctx, []vos.Edge{{User: 1, Item: 2, Op: vos.Insert}}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Similarity(ctx, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Similarity(ctx, 1, 3); err != nil {
		t.Fatal(err)
	}

	// One bad request to move an error counter.
	if status, _ := errorCode(t, http.MethodGet, base+server.RouteSimilarity+"?u=x&v=2", "", ""); status != 400 {
		t.Fatalf("setup bad request: %d", status)
	}

	resp, err := http.Get(base + server.RouteMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	sim := m.Endpoints[server.RouteSimilarity]
	if sim.Requests != 3 || sim.Errors != 1 {
		t.Fatalf("similarity metrics %+v, want 3 requests / 1 error", sim)
	}
	if ing := m.Endpoints[server.RouteEdges]; ing.Requests != 1 || ing.Errors != 0 {
		t.Fatalf("ingest metrics %+v, want 1 request / 0 errors", ing)
	}
	if m.UptimeSeconds <= 0 {
		t.Fatalf("uptime %v", m.UptimeSeconds)
	}
}
