package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strings"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/server"
)

// TestClusterSketchRoundTrip pins the backend half of a shard handoff
// over the wire: GET /v1/cluster/sketch returns the engine's exact
// serialized state, POST /v1/cluster/import merges it into another
// backend, and the receiver's own export matches a whole-stream engine
// byte for byte.
func TestClusterSketchRoundTrip(t *testing.T) {
	edges := feasibleStream(5_000, 80, 0.25, 41)

	whole, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { whole.Close() })
	if err := whole.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	whole.Flush()
	want, err := whole.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	src, _, srcURL := newWired(t, server.Options{}, client.Options{MaxRetries: -1})
	if err := src.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	src.Flush()

	resp, err := http.Get(srcURL + server.RouteClusterSketch)
	if err != nil {
		t.Fatal(err)
	}
	state, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d body %s", resp.StatusCode, state)
	}
	if ct := resp.Header.Get("Content-Type"); ct != server.ContentTypeBinary {
		t.Fatalf("export content type %q", ct)
	}
	if !bytes.Equal(state, want) {
		t.Fatal("exported state differs from the engine's MarshalBinary")
	}

	_, _, dstURL := newWired(t, server.Options{}, client.Options{MaxRetries: -1})
	resp, err = http.Post(dstURL+server.RouteClusterImport, server.ContentTypeBinary, bytes.NewReader(state))
	if err != nil {
		t.Fatal(err)
	}
	var ir server.ImportResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ir.Bytes != len(state) {
		t.Fatalf("import: status %d, acked %d bytes (sent %d)", resp.StatusCode, ir.Bytes, len(state))
	}

	resp, err = http.Get(dstURL + server.RouteClusterSketch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("receiver's export differs from the whole-stream engine after import")
	}
}

// TestClusterSketchSince pins ?since= on the wire. Without it the body is
// the engine's exact export, as before, now with the cursor of that state
// in a header; a cursor the engine issued is answered with the edges
// applied since, in the binary stream format, or — too old, or from before
// an import — with the full export and the reason; a string that is not a
// cursor is the caller's error.
func TestClusterSketchSince(t *testing.T) {
	eng, _, url := newWired(t, server.Options{}, client.Options{MaxRetries: -1})
	get := func(since string) (int, []byte, http.Header) {
		t.Helper()
		target := url + server.RouteClusterSketch
		if since != "" {
			target += "?since=" + neturl.QueryEscape(since)
		}
		resp, err := http.Get(target)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body, resp.Header
	}
	export := func() []byte {
		t.Helper()
		data, err := eng.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	edges := feasibleStream(1_000, 80, 0.25, 43)
	if err := eng.ProcessBatch(edges[:400]); err != nil {
		t.Fatal(err)
	}

	status, body, hdr := get("")
	cursor := hdr.Get(server.HeaderSketchCursor)
	if status != http.StatusOK || !bytes.Equal(body, export()) || cursor == "" || hdr.Get(server.HeaderSketchFallback) != "" {
		t.Fatalf("no since: status %d, body equals export: %v, cursor %q, fallback %q",
			status, bytes.Equal(body, export()), cursor, hdr.Get(server.HeaderSketchFallback))
	}

	// Current: an empty delta under the same cursor, as often as asked.
	for i := 0; i < 2; i++ {
		status, body, hdr = get(cursor)
		got, err := vos.ReadStreamBinary(bytes.NewReader(body))
		if status != http.StatusOK || err != nil || len(got) != 0 || hdr.Get(server.HeaderSketchCursor) != cursor {
			t.Fatalf("current cursor: status %d, %d edges (%v), cursor %q want %q", status, len(got), err, hdr.Get(server.HeaderSketchCursor), cursor)
		}
	}

	// Behind by 100 edges: exactly those, and a receiver that applies them
	// to the state the cursor named holds the engine's state.
	mirror, err := vos.Unmarshal(export())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ProcessBatch(edges[400:500]); err != nil {
		t.Fatal(err)
	}
	status, body, hdr = get(cursor)
	delta, err := vos.ReadStreamBinary(bytes.NewReader(body))
	if status != http.StatusOK || err != nil || len(delta) != 100 || hdr.Get(server.HeaderSketchFallback) != "" {
		t.Fatalf("cursor 100 behind: status %d, %d edges (%v), fallback %q", status, len(delta), err, hdr.Get(server.HeaderSketchFallback))
	}
	mirror.ProcessBatch(delta)
	if got, err := mirror.MarshalBinary(); err != nil || !bytes.Equal(got, export()) {
		t.Fatalf("export at the cursor plus the delta differs from the engine's export (%v)", err)
	}
	if ct := hdr.Get("Content-Type"); ct != server.ContentTypeBinary {
		t.Fatalf("delta content type %q", ct)
	}
	next := hdr.Get(server.HeaderSketchCursor)

	// Too old: 3 shards × 256-edge journals, 500 more edges per shard.
	if err := eng.ProcessBatch(feasibleStream(1_500, 80, 0, 44)); err != nil {
		t.Fatal(err)
	}
	status, body, hdr = get(next)
	if status != http.StatusOK || !bytes.Equal(body, export()) || hdr.Get(server.HeaderSketchFallback) != vos.SketchFallbackJournal || hdr.Get(server.HeaderSketchCursor) == next {
		t.Fatalf("cursor behind the journal: status %d, body equals export: %v, fallback %q", status, bytes.Equal(body, export()), hdr.Get(server.HeaderSketchFallback))
	}
	next = hdr.Get(server.HeaderSketchCursor)

	// Stale epoch: state arrived that no journal records.
	other := vos.MustNew(testEngineConfig().Sketch)
	other.ProcessBatch(feasibleStream(50, 80, 0, 45))
	state, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ImportSketch(state); err != nil {
		t.Fatal(err)
	}
	status, body, hdr = get(next)
	if status != http.StatusOK || !bytes.Equal(body, export()) || hdr.Get(server.HeaderSketchFallback) != vos.SketchFallbackEpoch {
		t.Fatalf("cursor from before an import: status %d, body equals export: %v, fallback %q", status, bytes.Equal(body, export()), hdr.Get(server.HeaderSketchFallback))
	}

	for _, bad := range []string{"nonsense", "1.2.3", "0.0.0:1,x"} {
		resp, err := http.Get(url + server.RouteClusterSketch + "?since=" + neturl.QueryEscape(bad))
		if err != nil {
			t.Fatal(err)
		}
		var env server.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != server.CodeBadRequest {
			t.Fatalf("since=%q: status %d code %q, want 400 %s", bad, resp.StatusCode, env.Error.Code, server.CodeBadRequest)
		}
	}
}

// exportOnly is a service decorator of the kind that hides optional
// interfaces: it forwards the base service and the full export only, which
// makes the engine behind it look like a vosd that predates ?since=.
type exportOnly struct{ vos.SimilarityService }

func (s exportOnly) ExportSketch(ctx context.Context) ([]byte, error) {
	return s.SimilarityService.(vos.StateExporter).ExportSketch(ctx)
}

// TestClusterRoutesUnsupported pins the state-transfer capability matrix,
// one row per kind of service: what GET /v1/cluster/sketch answers, with
// and without ?since=, what POST /v1/cluster/import answers, and whether a
// POST /v1/edges answer carries the batch's span. A missing capability is
// 501 unsupported — the probe contract every optional capability follows —
// and so is one the instance cannot deliver (a windowed engine's import).
func TestClusterRoutesUnsupported(t *testing.T) {
	const (
		none   = iota // 501 unsupported
		full          // the full sketch, no cursor, with or without ?since=
		delta         // a cursor, and a VOSSTRM1 body to ?since=<cursor>
		unseen        // not checked
	)
	cfg := testEngineConfig()
	engine := func(t *testing.T, window bool) *vos.Engine {
		c := cfg
		if window {
			c.Window = &vos.WindowConfig{Buckets: 3, BucketDuration: time.Hour}
		}
		eng, err := vos.NewEngine(c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	rows := []struct {
		name   string
		svc    func(t *testing.T) (vos.SimilarityService, *vos.Engine)
		export int
		imp    int // status of a well-formed import
		span   int // none, delta (both span headers) or unseen
	}{
		// The bare interface: no capability shows through the wrapper.
		{"sketch service", func(t *testing.T) (vos.SimilarityService, *vos.Engine) {
			return struct{ vos.SimilarityService }{vos.NewEngineService(engine(t, false))}, nil
		}, none, http.StatusNotImplemented, none},
		{"export-only decorator", func(t *testing.T) (vos.SimilarityService, *vos.Engine) {
			eng := engine(t, false)
			return exportOnly{vos.NewEngineService(eng)}, eng
		}, full, http.StatusNotImplemented, none},
		{"engine service", func(t *testing.T) (vos.SimilarityService, *vos.Engine) {
			eng := engine(t, false)
			return vos.NewEngineService(eng), eng
		}, delta, http.StatusOK, delta},
		{"windowed engine service", func(t *testing.T) (vos.SimilarityService, *vos.Engine) {
			eng := engine(t, true)
			return vos.NewEngineService(eng), eng
		}, unseen, http.StatusNotImplemented, unseen},
	}
	other := vos.MustNew(cfg.Sketch)
	other.ProcessBatch(feasibleStream(50, 80, 0, 47))
	state, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			svc, eng := row.svc(t)
			ts := httptest.NewServer(server.New(svc, server.Options{}))
			t.Cleanup(ts.Close)
			do := func(method, path, contentType string, body []byte) (*http.Response, []byte) {
				t.Helper()
				req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
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
				data, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp, data
			}
			unsupported := func(what string, resp *http.Response, body []byte) {
				t.Helper()
				var env server.ErrorEnvelope
				if err := json.Unmarshal(body, &env); err != nil || resp.StatusCode != http.StatusNotImplemented || env.Error.Code != server.CodeUnsupported {
					t.Fatalf("%s: status %d body %s, want 501 %s", what, resp.StatusCode, body, server.CodeUnsupported)
				}
			}

			resp, body := do(http.MethodPost, server.RouteEdges, server.ContentTypeJSON, []byte(`[{"user":1,"item":10},{"user":2,"item":10}]`))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest: status %d body %s", resp.StatusCode, body)
			}
			before, after := resp.Header.Get(server.HeaderSketchBefore), resp.Header.Get(server.HeaderSketchCursor)
			switch row.span {
			case none:
				if before != "" || after != "" {
					t.Fatalf("ingest answer carries a span %q..%q", before, after)
				}
			case delta:
				if before == "" || after == "" {
					t.Fatalf("ingest answer carries the span %q..%q, want both ends", before, after)
				}
			}

			switch row.export {
			case none:
				resp, body = do(http.MethodGet, server.RouteClusterSketch, "", nil)
				unsupported("sketch export", resp, body)
			case full:
				want, err := eng.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				d, err := eng.ExportSince("")
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range []string{"", "?since=" + neturl.QueryEscape(d.Cursor)} {
					resp, body = do(http.MethodGet, server.RouteClusterSketch+q, "", nil)
					if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) || resp.Header.Get(server.HeaderSketchCursor) != "" {
						t.Fatalf("export%s: status %d, body equals the full sketch: %v, cursor %q; want the full sketch and no cursor",
							q, resp.StatusCode, bytes.Equal(body, want), resp.Header.Get(server.HeaderSketchCursor))
					}
				}
			case delta:
				resp, _ = do(http.MethodGet, server.RouteClusterSketch, "", nil)
				cursor := resp.Header.Get(server.HeaderSketchCursor)
				if resp.StatusCode != http.StatusOK || cursor == "" {
					t.Fatalf("export: status %d cursor %q, want a cursor", resp.StatusCode, cursor)
				}
				resp, body = do(http.MethodGet, server.RouteClusterSketch+"?since="+neturl.QueryEscape(cursor), "", nil)
				if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(body, []byte("VOSSTRM1")) {
					t.Fatalf("export since the cursor: status %d, body %.8q; want a VOSSTRM1 body", resp.StatusCode, body)
				}
			}

			resp, body = do(http.MethodPost, server.RouteClusterImport, server.ContentTypeBinary, state)
			if row.imp == http.StatusNotImplemented {
				unsupported("sketch import", resp, body)
			} else if resp.StatusCode != row.imp {
				t.Fatalf("sketch import: status %d body %s, want %d", resp.StatusCode, body, row.imp)
			}
		})
	}
}

// TestClusterImportRejects pins the import refusal surface over HTTP:
// corrupt payloads map to 400 bad_request (via vos.ErrCorruptSketch),
// wrong content types are refused before the body is read, and method
// gates hold on both routes.
func TestClusterImportRejects(t *testing.T) {
	_, _, url := newWired(t, server.Options{}, client.Options{MaxRetries: -1})

	cases := []struct {
		name        string
		contentType string
		body        string
		status      int
		code        string
	}{
		{"corrupt payload", server.ContentTypeBinary, "not a sketch at all", http.StatusBadRequest, server.CodeBadRequest},
		{"wrong content type", server.ContentTypeJSON, "{}", http.StatusBadRequest, server.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(url+server.RouteClusterImport, tc.contentType, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var env server.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status || env.Error.Code != tc.code {
				t.Fatalf("status %d code %q, want %d %q", resp.StatusCode, env.Error.Code, tc.status, tc.code)
			}
		})
	}

	// Method gates: the export route is GET-only, the import route POST-only.
	resp, err := http.Post(url+server.RouteClusterSketch, server.ContentTypeBinary, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST on export route: status %d", resp.StatusCode)
	}
	resp, err = http.Get(url + server.RouteClusterImport)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on import route: status %d", resp.StatusCode)
	}
}

// TestTopKPartialHeader: a plain engine service implements no PartialTopK,
// so /v1/topk answers never carry X-Vos-Partial — the header is reserved
// for gateway-degraded responses.
func TestTopKPartialHeader(t *testing.T) {
	eng, _, url := newWired(t, server.Options{}, client.Options{MaxRetries: -1})
	if err := eng.ProcessBatch(feasibleStream(500, 20, 0.1, 9)); err != nil {
		t.Fatal(err)
	}
	eng.Flush()

	body, err := json.Marshal(server.TopKRequest{User: 1, Candidates: []vos.User{2, 3, 4}, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+server.RouteTopK, server.ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(server.HeaderPartial); got != "" {
		t.Fatalf("complete top-K carried %s: %q", server.HeaderPartial, got)
	}
}

// TestIngestSpan pins the span a POST /v1/edges answer carries: the cursor of
// the state just before the batch and of the state with it and nothing else.
// ?since= the first is answered with exactly the batch — though it began
// inside batches the engine journalled — under the second, so a reader
// holding the first holds the second once it has applied the batch itself.
func TestIngestSpan(t *testing.T) {
	eng, cl, _ := newWired(t, server.Options{}, client.Options{MaxRetries: -1, Linger: -1})
	ctx := context.Background()
	edges := feasibleStream(400, 80, 0.25, 46)
	if err := eng.ProcessBatch(edges[:300]); err != nil { // 100 a shard: residues pending
		t.Fatal(err)
	}
	mirror := vos.MustNew(testEngineConfig().Sketch)
	mirror.ProcessBatch(edges[:300])
	acked, span, err := cl.Send(ctx, edges[300:340])
	if err != nil || acked != 40 || span.Before == "" || span.After == "" || span.Before == span.After {
		t.Fatalf("Send = %d, %+v, %v; want 40 edges and a span", acked, span, err)
	}
	d, _, err := cl.ExportSince(ctx, span.Before)
	if err != nil || d.Full != nil || len(d.Edges) != 40 || d.Cursor != span.After {
		t.Fatalf("since the span's start: %d edges, full %v, cursor %q (%v); want the 40 edges under %q", len(d.Edges), d.Full != nil, d.Cursor, err, span.After)
	}
	mirror.ProcessBatch(edges[300:340])
	got, err := mirror.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want, err := eng.MarshalBinary(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the state before the span plus the batch differs from the engine's (%v)", err)
	}
	if d, _, err := cl.ExportSince(ctx, span.After); err != nil || d.Full != nil || len(d.Edges) != 0 || d.Cursor != span.After {
		t.Fatalf("since the span's end: %d edges, full %v, cursor %q (%v); want none under the same cursor", len(d.Edges), d.Full != nil, d.Cursor, err)
	}
	// The next batch starts where this one ended.
	if _, next, err := cl.Send(ctx, edges[340:]); err != nil || next.Before != span.After {
		t.Fatalf("the next span starts at %q (%v), want %q", next.Before, err, span.After)
	}
}
