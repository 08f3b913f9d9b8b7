package client_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/cluster"
	"github.com/vossketch/vos/server"
)

// gatewayStack is a full in-process cluster: K engine-backed vosd
// stand-ins, a gateway over them, and the gateway's HTTP face.
type gatewayStack struct {
	gw       *cluster.Gateway
	backends []*server.Server
	url      string
}

func newGatewayStack(t *testing.T, k int, gwOpt cluster.Options) *gatewayStack {
	t.Helper()
	cfg := vos.EngineConfig{Sketch: vos.Config{MemoryBits: 1 << 14, SketchBits: 256, Seed: 5}, Shards: 2}
	backends := make([]*server.Server, k)
	shards := make([]string, k)
	for i := range backends {
		eng, err := vos.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = server.New(vos.NewEngineService(eng), server.Options{})
		ts := httptest.NewServer(backends[i])
		shards[i] = ts.URL
		t.Cleanup(func() {
			ts.Close()
			eng.Close()
		})
	}
	gwOpt.Client.MaxRetries = -1
	gw, err := cluster.New(&cluster.Ring{Version: 1, RouteSeed: 3, Shards: shards}, gwOpt)
	if err != nil {
		t.Fatal(err)
	}
	front := server.New(gw, server.Options{})
	gw.Register(front)
	ts := httptest.NewServer(front)
	t.Cleanup(func() {
		ts.Close()
		gw.Close()
	})
	return &gatewayStack{gw: gw, backends: backends, url: ts.URL}
}

// TestClusterClientFullStack drives the whole tier through the public
// client: ingest through the gateway, query scatter-gathered answers, read
// the ring, hand a shard off to a fresh node, and verify the cluster's
// exported state still matches a single direct engine byte for byte.
func TestClusterClientFullStack(t *testing.T) {
	ctx := context.Background()
	st := newGatewayStack(t, 3, cluster.Options{})
	cl := client.NewCluster(st.url, client.Options{MaxRetries: -1})
	t.Cleanup(func() { cl.Close() })

	direct, err := vos.NewEngine(vos.EngineConfig{Sketch: vos.Config{MemoryBits: 1 << 14, SketchBits: 256, Seed: 5}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { direct.Close() })

	var edges []vos.Edge
	for i := uint64(0); i < 3000; i++ {
		edges = append(edges, edge(i%60, i%977))
	}
	if err := cl.Ingest(ctx, edges); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := direct.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	direct.Flush()

	for u := vos.User(0); u < 60; u += 7 {
		got, err := cl.Similarity(ctx, u, u+1)
		if err != nil {
			t.Fatal(err)
		}
		if want := direct.Query(u, u+1); got != want {
			t.Fatalf("Similarity(%d,%d) over the stack = %+v, direct engine %+v", u, u+1, got, want)
		}
		card, err := cl.Cardinality(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if want := direct.Cardinality(u); card != want {
			t.Fatalf("Cardinality(%d) = %d, want %d", u, card, want)
		}
	}

	ring, err := cl.Ring(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Version != 1 || len(ring.Shards) != 3 {
		t.Fatalf("ring over the wire: %+v", ring)
	}

	// Handoff through the client to a fresh backend.
	freshEng, err := vos.NewEngine(vos.EngineConfig{Sketch: vos.Config{MemoryBits: 1 << 14, SketchBits: 256, Seed: 5}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	freshTS := httptest.NewServer(server.New(vos.NewEngineService(freshEng), server.Options{}))
	t.Cleanup(func() {
		freshTS.Close()
		freshEng.Close()
	})
	version, err := cl.Handoff(ctx, 1, freshTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 {
		t.Fatalf("ring version after handoff over the wire: %d", version)
	}

	// State parity survives the move: the gateway's export (fetched via
	// the embedded client's StateExporter) equals the direct engine's.
	state, err := cl.ExportSketch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, want) {
		t.Fatal("cluster export after handoff differs from the direct engine")
	}
}

// TestClusterClientPartialTopK is the degraded-read pin: one backend
// draining (503) must NOT fail a scatter-gather top-K through the full
// client→gateway stack — the answer comes back with the partial flag.
func TestClusterClientPartialTopK(t *testing.T) {
	ctx := context.Background()
	st := newGatewayStack(t, 3, cluster.Options{})
	cl := client.NewCluster(st.url, client.Options{MaxRetries: -1})
	t.Cleanup(func() { cl.Close() })

	var edges []vos.Edge
	for i := uint64(0); i < 2000; i++ {
		edges = append(edges, edge(i%40, i%613))
	}
	if err := cl.Ingest(ctx, edges); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	candidates := make([]vos.User, 0, 39)
	for u := vos.User(0); u < 40; u++ {
		if u != 1 {
			candidates = append(candidates, u)
		}
	}

	// Healthy cluster: the same call reports complete.
	results, complete, err := cl.TopKPartial(ctx, 1, candidates, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Fatal("healthy cluster reported a partial answer")
	}
	if len(results) != 5 {
		t.Fatalf("healthy top-K returned %d results", len(results))
	}

	// Drain one backend: its /v1/ routes now answer 503 draining.
	if err := st.backends[2].Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// The healthy read above cached the complete merge, and the gateway
	// keeps serving it until the next attempted ingest. Attempt one, as
	// production traffic would: the drained backend may refuse its share,
	// but the cache key moves whatever the fan-out's outcome, so the next
	// gather really contacts the drained node.
	_ = cl.Ingest(ctx, []vos.Edge{edge(41, 1)})
	_ = cl.Flush(ctx)

	results, complete, err = cl.TopKPartial(ctx, 1, candidates, 5)
	if err != nil {
		t.Fatalf("scatter-gather top-K must survive one draining backend: %v", err)
	}
	if complete {
		t.Fatal("degraded top-K did not set the partial flag")
	}
	if len(results) == 0 {
		t.Fatal("degraded top-K returned nothing")
	}

	// The strict read path does fail — partial tolerance is opt-in, and the
	// SimilarityService top-K never passes a ranking over part of the state
	// for the whole (in-process, Gateway.TopK fails the same way).
	if got, err := cl.TopK(ctx, 1, candidates, 5); !errors.Is(err, vos.ErrQueryUnavailable) {
		t.Fatalf("plain TopK with a backend draining = %d results, err %v; want vos.ErrQueryUnavailable", len(got), err)
	}
	if _, err := cl.Similarity(ctx, 1, 2); err == nil {
		t.Fatal("strict similarity should fail with a backend draining")
	}
}

// TestClusterClientCheckpointUnsupported: cluster checkpoint over
// memory-only backends surfaces the backends' 501 as a typed *client.Error
// rather than fabricating a manifest.
func TestClusterClientCheckpointUnsupported(t *testing.T) {
	st := newGatewayStack(t, 2, cluster.Options{})
	cl := client.NewCluster(st.url, client.Options{MaxRetries: -1})
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.CheckpointCluster(context.Background()); err == nil {
		t.Fatal("checkpoint over memory-only backends must fail")
	}
}

// TestImportSketchNotRetried: a transient 500 on the import route must
// surface immediately — replaying an import that may have landed would
// XOR-cancel it.
func TestImportSketchNotRetried(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(500)
	}))
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL, client.Options{MaxRetries: 5, RetryBackoff: time.Millisecond})
	t.Cleanup(func() { cl.Close() })
	if err := cl.ImportSketch(context.Background(), []byte("state")); err == nil {
		t.Fatal("import against a failing backend must error")
	}
	if calls != 1 {
		t.Fatalf("import route was called %d times, want exactly 1 (writes are never retried)", calls)
	}
}
