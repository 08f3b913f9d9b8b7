package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/server"
)

// TestSimilarityPathIsURLEncode: the query string built with strconv is the
// one url.Values.Encode built, byte for byte — keys sorted, at first.
func TestSimilarityPathIsURLEncode(t *testing.T) {
	for _, tc := range []struct {
		u, v vos.User
		at   string
	}{
		{0, 0, ""},
		{1, 2, ""},
		{math.MaxUint64, 1 << 63, ""},
		{7, 9, formatUnixSeconds(time.Unix(1700000000, 250_000_000))},
		{7, 9, formatUnixSeconds(time.Unix(0, 1))},
		{7, 9, formatUnixSeconds(time.Unix(1<<33, 999))},
	} {
		q := url.Values{}
		q.Set("u", strconv.FormatUint(uint64(tc.u), 10))
		q.Set("v", strconv.FormatUint(uint64(tc.v), 10))
		if tc.at != "" {
			q.Set("at", tc.at)
		}
		if got, want := similarityPath(tc.u, tc.v, tc.at), server.RouteSimilarity+"?"+q.Encode(); got != want {
			t.Errorf("similarityPath(%d, %d, %q) = %q, url.Values.Encode: %q", tc.u, tc.v, tc.at, got, want)
		}
	}
}

// TestResponsePastTheCapIsAnError: a response one byte longer than the client
// reads is an error that says so — it used to come back as its own prefix
// with a nil error, which for a sketch export reads as a corrupt backend —
// and one of exactly the cap is returned whole, with or without a
// Content-Length to size the read from.
func TestResponsePastTheCapIsAnError(t *testing.T) {
	const limit = 3000
	body := bytes.Repeat([]byte("sketch! "), limit/8+1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("since"))
		if n < 0 { // chunked: the length is not known up front
			n = -n
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
		}
		_, _ = w.Write(body[:n])
	}))
	defer ts.Close()
	c := New(ts.URL, Options{Linger: -1, MaxRetries: -1})
	defer c.Close()
	c.maxResponse = limit

	for _, n := range []int{limit + 1, -(limit + 1), len(body)} {
		d, _, err := c.ExportSince(context.Background(), strconv.Itoa(n))
		if err == nil || !strings.Contains(err.Error(), "response exceeds the limit of 3000 bytes") || retryable(err) {
			t.Errorf("a body of %d bytes under a cap of %d: got %d bytes and error %v", n, limit, len(d.Full), err)
		}
		var apiErr *Error
		if errors.As(err, &apiErr) {
			t.Errorf("a body of %d bytes: %v is the server's error, not the client's", n, err)
		}
	}
	for _, n := range []int{limit, -limit, 1, -1} {
		d, size, err := c.ExportSince(context.Background(), strconv.Itoa(n))
		if want := body[:max(n, -n)]; err != nil || size != len(want) || !bytes.Equal(d.Full, want) {
			t.Errorf("a body of %d bytes under a cap of %d: got %d bytes and error %v", n, limit, len(d.Full), err)
		}
	}
}

// foreignJSON is v in valid JSON that is not this module's: indented, or with
// the keys in an order of its own (through a map, whose keys are sorted).
func foreignJSON(v any, indent bool) []byte {
	if indent {
		out, _ := json.MarshalIndent(v, "", "  ")
		return out
	}
	flat, _ := json.Marshal(v)
	dec := json.NewDecoder(bytes.NewReader(flat))
	dec.UseNumber()
	var loose any
	_ = dec.Decode(&loose)
	out, _ := json.Marshal(loose)
	return out
}

// foreignServer answers the two hot reads in foreignJSON.
func foreignServer(t *testing.T, est vos.Estimate, top []vos.TopKResult, indent bool) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc(server.RouteSimilarity, func(w http.ResponseWriter, r *http.Request) {
		body := foreignJSON(est, indent)
		if _, ok := server.ScanEstimate(body); ok {
			t.Errorf("the scan took a foreign estimate %q", body)
		}
		_, _ = w.Write(body)
	})
	mux.HandleFunc(server.RouteTopK, func(w http.ResponseWriter, r *http.Request) {
		var req server.TopKRequest
		if err := server.DecodeStrictJSON(r.Body, &req); err != nil {
			t.Errorf("request body: %v", err)
		}
		body := foreignJSON(top, indent)
		if _, ok := server.ScanTopK(body); ok {
			t.Errorf("the scan took a foreign ranking %q", body)
		}
		_, _ = w.Write(body)
	})
	return httptest.NewServer(mux)
}

// TestAnswersFromAForeignServer: the client reads this module's bytes with
// the kernel and anybody else's valid JSON with encoding/json, and returns
// the same values either way.
func TestAnswersFromAForeignServer(t *testing.T) {
	est := vos.Estimate{Common: 12.5, CommonClamped: 12, Jaccard: 1.0 / 3, SymmetricDifference: 48.25,
		Alpha: 1e-7, Beta: 0.015625, CardinalityU: 40, CardinalityV: 32}
	sat := est
	sat.Saturated = true
	top := []vos.TopKResult{{User: 7, Estimate: est}, {User: 1 << 63, Estimate: sat}}
	ctx := context.Background()
	for _, indent := range []bool{false, true} {
		ts := foreignServer(t, est, top, indent)
		c := New(ts.URL, Options{Linger: -1, MaxRetries: -1})
		if got, err := c.Similarity(ctx, 1, 2); err != nil || got != est {
			t.Errorf("indent %v: Similarity = %+v, %v; want %+v", indent, got, err, est)
		}
		if got, err := c.TopK(ctx, 1, []vos.User{2, 3}, 2); err != nil || !reflect.DeepEqual(got, top) {
			t.Errorf("indent %v: TopK = %+v, %v; want %+v", indent, got, err, top)
		}
		c.Close()
		ts.Close()
	}
}

// TestPostTopKLeavesOddModesToEncodingJSON: a mode the kernel does not write
// still travels, escaped as json.Marshal escapes it, and is the server's to
// refuse in the server's words.
func TestPostTopKLeavesOddModesToEncodingJSON(t *testing.T) {
	eng, err := vos.NewEngine(vos.EngineConfig{Sketch: vos.Config{MemoryBits: 1 << 14, SketchBits: 128, Seed: 1}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	defer ts.Close()
	c := New(ts.URL, Options{Linger: -1, MaxRetries: -1})
	defer c.Close()

	const mode = "a\"b<\xff"
	if _, ok := server.AppendTopKRequest(nil, server.TopKRequest{Mode: mode}); ok {
		t.Fatalf("the kernel wrote mode %q", mode)
	}
	_, _, err = c.postTopK(context.Background(), server.TopKRequest{User: 1, Candidates: []vos.User{2}, N: 1, Mode: mode})
	var apiErr *Error
	if want := `mode must be "exact" or "ann", got "a\"b<�"`; !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Message != want {
		t.Fatalf("postTopK with mode %q: %v; want a 400 saying %s", mode, err, want)
	}
}
