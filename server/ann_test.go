package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/server"
)

// annEngineConfig is testEngineConfig plus the approximate top-K index,
// banded loosely enough for the tiny test sketches.
func annEngineConfig() vos.EngineConfig {
	cfg := testEngineConfig()
	cfg.ANN = &vos.ANNConfig{Bands: 16, Rows: 8}
	return cfg
}

// TestTopKModeANN: mode=ann over the wire answers candidates-free and
// bit-identically to the in-process Engine.TopKApprox, both via the raw
// endpoint and via client.TopKApprox.
func TestTopKModeANN(t *testing.T) {
	ctx := context.Background()
	eng, err := vos.NewEngine(annEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	cl := client.New(ts.URL, client.Options{})
	t.Cleanup(func() {
		cl.Close()
		ts.Close()
		eng.Close()
	})

	if err := cl.Ingest(ctx, feasibleStream(12_000, 80, 0.3, 5)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	for u := vos.User(0); u < 10; u++ {
		got, err := cl.TopKApprox(ctx, u, 5)
		if err != nil {
			t.Fatalf("TopKApprox(%d): %v", u, err)
		}
		want, err := eng.TopKApprox(u, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopKApprox(%d) over the wire %+v, in-process %+v", u, got, want)
		}
	}
}

// TestTopKModeErrors pins the mode-field error envelope: ann+candidates
// and unknown modes are bad_request; mode=ann against an engine without
// the index, or a service without the ApproxTopK extension, is 501
// unsupported.
func TestTopKModeErrors(t *testing.T) {
	eng, err := vos.NewEngine(annEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	defer ts.Close()

	status, code := errorCode(t, http.MethodPost, ts.URL+server.RouteTopK, server.ContentTypeJSON,
		`{"user":1,"n":5,"mode":"ann","candidates":[2,3]}`)
	if status != http.StatusBadRequest || code != server.CodeBadRequest {
		t.Fatalf("ann with candidates: got %d/%s, want 400/%s", status, code, server.CodeBadRequest)
	}
	status, code = errorCode(t, http.MethodPost, ts.URL+server.RouteTopK, server.ContentTypeJSON,
		`{"user":1,"n":5,"mode":"fuzzy"}`)
	if status != http.StatusBadRequest || code != server.CodeBadRequest {
		t.Fatalf("unknown mode: got %d/%s, want 400/%s", status, code, server.CodeBadRequest)
	}

	// An engine without Config.ANN supports the extension interface but not
	// the index: ErrNoANN must surface as 501 unsupported.
	plain, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	tsPlain := httptest.NewServer(server.New(vos.NewEngineService(plain), server.Options{}))
	defer tsPlain.Close()
	status, code = errorCode(t, http.MethodPost, tsPlain.URL+server.RouteTopK, server.ContentTypeJSON,
		`{"user":1,"n":5,"mode":"ann"}`)
	if status != http.StatusNotImplemented || code != server.CodeUnsupported {
		t.Fatalf("engine without ANN: got %d/%s, want 501/%s", status, code, server.CodeUnsupported)
	}

	// A service that does not implement vos.ApproxTopK at all (the wrapper
	// narrows the method set to SimilarityService).
	narrowed := struct{ vos.SimilarityService }{vos.NewEngineService(eng)}
	tsNarrow := httptest.NewServer(server.New(narrowed, server.Options{}))
	defer tsNarrow.Close()
	status, code = errorCode(t, http.MethodPost, tsNarrow.URL+server.RouteTopK, server.ContentTypeJSON,
		`{"user":1,"n":5,"mode":"ann"}`)
	if status != http.StatusNotImplemented || code != server.CodeUnsupported {
		t.Fatalf("non-ApproxTopK service: got %d/%s, want 501/%s", status, code, server.CodeUnsupported)
	}

	// client.TopKApprox surfaces the typed code for callers that probe.
	cl := client.New(tsNarrow.URL, client.Options{})
	defer cl.Close()
	_, err = cl.TopKApprox(context.Background(), 1, 5)
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Code != server.CodeUnsupported {
		t.Fatalf("client error = %v, want *client.Error with code %s", err, server.CodeUnsupported)
	}
}

// TestStatsANNOnWire: /v1/stats carries the approximate top-K index's
// counters as its `ann` object — a small write between two probes shows up
// as band re-keys with no further whole-user re-banding — and leaves the
// object out when the engine keeps no index.
func TestStatsANNOnWire(t *testing.T) {
	ctx := context.Background()
	stats := func(eng *vos.Engine) *vos.ANNStats {
		t.Helper()
		ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
		defer ts.Close()
		resp, err := http.Get(ts.URL + server.RouteStats)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var wire server.StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			t.Fatal(err)
		}
		return wire.ANN
	}

	eng, err := vos.NewEngine(annEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	svc := vos.NewEngineService(eng).(vos.ApproxTopK)
	edges := feasibleStream(4_000, 80, 0, 5)
	if err := eng.ProcessBatch(edges[:3_900]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.TopKApprox(ctx, 1, 5); err != nil {
		t.Fatal(err)
	}
	built := stats(eng)
	if built == nil {
		t.Fatal("ANN engine's /v1/stats has no ann object")
	}
	if err := eng.ProcessBatch(edges[3_900:]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.TopKApprox(ctx, 1, 5); err != nil {
		t.Fatal(err)
	}
	got := stats(eng)
	if st, _ := eng.ANNStats(); *got != st {
		t.Fatalf("ann on the wire %+v, in-process %+v", *got, st)
	}
	if got.Indexed != 80 || got.Probes != 2 || got.BandRekeys == 0 || got.Rebands != built.Rebands ||
		got.JournalFallbacks != 0 || got.SpilledUsers != 0 || got.DirtyBacklog != 0 {
		t.Fatalf("a 100-edge write between two probes should be band re-keys only: built %+v, then %+v", *built, *got)
	}

	plain, err := vos.NewEngine(testEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if ann := stats(plain); ann != nil {
		t.Fatalf("/v1/stats of an engine without an index carries an ann object: %+v", *ann)
	}
}
