package server_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/admit"
	"github.com/vossketch/vos/server"
)

func binaryBody(t testing.TB, edges []vos.Edge) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := vos.WriteStreamBinary(&buf, edges); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestDoesNotKeepTheSlice is the server's side of
// SimilarityService.Ingest's rule. The handler reads and decodes a binary
// body in pooled memory and takes it back the moment the service returns,
// for the next request to decode into — which is only right because the
// service kept nothing. Four connections post batches of uneven size at
// once (and bodies the decoder refuses, whose buffers go back too); the
// engine behind them must end up holding exactly the stream.
//
// The engine is durable, and its log is written from the body's own bytes
// (TestLoggedBodyIsWhatAppendWrites): every body is scribbled over the moment
// its request returns, and an engine reopened from the log must still replay
// the stream — the log may keep nothing of the caller's memory either.
func TestIngestDoesNotKeepTheSlice(t *testing.T) {
	dir := t.TempDir()
	eng, err := vos.OpenEngine(dir, durableTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer server.ScribbleReleasedBodies()()
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	defer ts.Close()

	stream := feasibleStream(24_000, 300, 0.25, 31)
	var bodies [][]byte
	for off, step := 0, 1; off < len(stream); step = step*3%1499 + 1 {
		end := min(off+step, len(stream))
		bodies = append(bodies, binaryBody(t, stream[off:end]))
		off = end
	}
	const posters = 4
	var wg sync.WaitGroup
	errs := make(chan error, posters)
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := p; i < len(bodies); i += posters {
				body := bodies[i]
				if i%7 == 0 { // a truncated twin first: refused, nothing of it applied
					if err := postBinary(ts.URL, body[:len(body)-1], http.StatusBadRequest); err != nil {
						errs <- err
						return
					}
				}
				if err := postBinary(ts.URL, body, http.StatusOK); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	single := vos.MustNew(testEngineConfig().Sketch)
	single.ProcessBatch(stream)
	want, err := single.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the engine's state is not the stream's: a pooled slice was decoded into while a service still read it")
	}
	assertReplays(t, dir, stream)
}

func postBinary(base string, body []byte, wantStatus int) error {
	resp, err := http.Post(base+server.RouteEdges, server.ContentTypeBinary, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("binary POST of %d bytes: status %d, want %d", len(body), resp.StatusCode, wantStatus)
	}
	return nil
}

// holdFirstService parks its first Ingest until released and reports
// whether the slice it was handed changed meanwhile; later calls return at
// once.
type holdFirstService struct {
	vos.SimilarityService
	first   atomic.Bool
	entered chan struct{}
	release chan struct{}
	changed chan bool
}

func (s *holdFirstService) Ingest(_ context.Context, edges []vos.Edge) error {
	if !s.first.CompareAndSwap(false, true) {
		return nil
	}
	before := append([]vos.Edge(nil), edges...)
	close(s.entered)
	<-s.release
	s.changed <- !reflect.DeepEqual(before, edges)
	return nil
}

// TestPooledSliceIsTheServicesUntilIngestReturns is the other direction of
// the contract: the server takes its pooled slice back when Ingest returns,
// not before. While one request is still inside Ingest, others come and go
// through the pool; its slice must not be among the memory they decode into.
func TestPooledSliceIsTheServicesUntilIngestReturns(t *testing.T) {
	svc := &holdFirstService{entered: make(chan struct{}), release: make(chan struct{}), changed: make(chan bool, 1)}
	ts := httptest.NewServer(server.New(svc, server.Options{}))
	defer ts.Close()
	stream := feasibleStream(600, 50, 0, 5)

	held := make(chan error, 1)
	first := binaryBody(t, stream[:300])
	go func() { held <- postBinary(ts.URL, first, http.StatusOK) }()
	<-svc.entered
	later := binaryBody(t, stream[300:])
	for i := 0; i < 16; i++ {
		if err := postBinary(ts.URL, later, http.StatusOK); err != nil {
			t.Fatal(err)
		}
	}
	close(svc.release)
	if <-svc.changed {
		t.Fatal("the slice of a request still inside Ingest was decoded into by a later one")
	}
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// TestBinaryBodyLengthMismatch: the handler reads a binary body into a
// buffer of the Content-Length it demands; a body that ends early or runs
// past it is refused, whatever its bytes decode to. (net/http's own server
// cuts a body at its Content-Length, so the handler is called directly.)
func TestBinaryBodyLengthMismatch(t *testing.T) {
	eng, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv := server.New(vos.NewEngineService(eng), server.Options{Admission: admit.NewController(64, 0)})
	two := binaryBody(t, []vos.Edge{{User: 1, Item: 2}, {User: 3, Item: 4}})
	one := binaryBody(t, []vos.Edge{{User: 1, Item: 2}})
	cases := []struct {
		name     string
		body     []byte
		promised int
		status   int
		code     string
	}{
		{"as promised", two, len(two), http.StatusOK, ""},
		{"ends early", two, len(two) + 3, http.StatusBadRequest, server.CodeBadRequest},
		// The first len(one)+... bytes of this body are not a stream on
		// their own either way; what matters is that the tail is noticed.
		{"runs past", append(append([]byte(nil), one...), 0x05, 0x06), len(one), http.StatusBadRequest, server.CodeBadRequest},
		{"runs past the cap", bytes.Repeat([]byte{1}, 80), 64, http.StatusRequestEntityTooLarge, server.CodeTooLarge},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, server.RouteEdges, bytes.NewReader(tc.body))
		req.Header.Set("Content-Type", server.ContentTypeBinary)
		req.ContentLength = int64(tc.promised)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != tc.status || (tc.code != "" && !strings.Contains(rec.Body.String(), `"`+tc.code+`"`)) {
			t.Errorf("%s: status %d body %s, want %d %s", tc.name, rec.Code, rec.Body.String(), tc.status, tc.code)
		}
	}
	eng.Flush()
	if card, err := eng.CardinalityContext(context.Background(), 1); err != nil || card != 1 {
		t.Errorf("after one accepted body of four: cardinality(1) = %d, %v; want 1", card, err)
	}
}

// TestUserRangeRefusedAtDecode: a user id the binary encoding cannot carry
// is a 400 bad_request in a JSON or NDJSON body, from a memory-only service
// as from a durable one — whose log would refuse it (vos.ErrUserRange) — and
// the sentinel maps to the same answer wherever a service raises it. The
// largest id that fits is taken.
func TestUserRangeRefusedAtDecode(t *testing.T) {
	durable, err := vos.OpenEngine(t.TempDir(), testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	memory, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer memory.Close()
	const tooBig, fits = "9223372036854775813", "9223372036854775807" // 2^63+5, 2^63-1
	for name, eng := range map[string]*vos.Engine{"memory-only": memory, "durable": durable} {
		ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
		for _, tc := range []struct{ contentType, body string }{
			{server.ContentTypeJSON, `{"user":` + tooBig + `,"item":7}`},
			{server.ContentTypeJSON, `[{"user":1,"item":7},{"user":` + tooBig + `,"item":7}]`},
			{server.ContentTypeNDJSON, `{"user":1,"item":7}` + "\n" + `{"user":` + tooBig + `,"item":7}` + "\n"},
		} {
			status, code := errorCode(t, http.MethodPost, ts.URL+server.RouteEdges, tc.contentType, tc.body)
			if status != http.StatusBadRequest || code != server.CodeBadRequest {
				t.Errorf("%s, %s %s: got %d/%s, want 400/%s", name, tc.contentType, tc.body, status, code, server.CodeBadRequest)
			}
		}
		resp, err := http.Post(ts.URL+server.RouteEdges, server.ContentTypeJSON, strings.NewReader(`{"user":`+fits+`,"item":7}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: the largest user id that fits was answered %d", name, resp.StatusCode)
		}
		ts.Close()
		eng.Flush()
		if card, err := eng.CardinalityContext(context.Background(), 1); err != nil || card != 0 {
			t.Errorf("%s: a refused body left user 1 with cardinality %d (%v)", name, card, err)
		}
	}
	if status, code := server.StatusFor(fmt.Errorf("ingest: %w", vos.ErrUserRange)); status != http.StatusBadRequest || code != server.CodeBadRequest {
		t.Errorf("StatusFor(ErrUserRange) = %d/%s, want 400/%s", status, code, server.CodeBadRequest)
	}
}
