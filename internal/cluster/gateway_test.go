package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/server"
)

// testSketchCfg is the shared cluster sketch identity for every backend
// and oracle in these tests — small enough to keep gathers cheap, big
// enough that estimates are non-degenerate.
var testSketchCfg = vos.Config{MemoryBits: 1 << 14, SketchBits: 256, Seed: 5}

// backendHarness is one in-process vosd stand-in: an engine-backed
// service behind a real HTTP server.
type backendHarness struct {
	eng *vos.Engine
	srv *server.Server
	ts  *httptest.Server
}

func (b *backendHarness) URL() string { return b.ts.URL }

// newBackend starts an in-process backend. dir != "" makes it durable.
func newBackend(t *testing.T, dir string) *backendHarness {
	t.Helper()
	cfg := vos.EngineConfig{Sketch: testSketchCfg, Shards: 2}
	var eng *vos.Engine
	var err error
	if dir != "" {
		eng, err = vos.OpenEngine(dir, cfg)
	} else {
		eng, err = vos.NewEngine(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(vos.NewEngineService(eng), server.Options{})
	ts := httptest.NewServer(srv)
	b := &backendHarness{eng: eng, srv: srv, ts: ts}
	t.Cleanup(func() {
		b.ts.Close()
		b.eng.Close()
	})
	return b
}

// newTestCluster starts k backends and a gateway over them. Client
// retries are disabled so failure-path tests stay fast.
func newTestCluster(t *testing.T, k int, opt Options) (*Gateway, []*backendHarness) {
	t.Helper()
	backends := make([]*backendHarness, k)
	shards := make([]string, k)
	for i := range backends {
		backends[i] = newBackend(t, "")
		shards[i] = backends[i].URL()
	}
	ring := &Ring{Version: 1, RouteSeed: 9, Shards: shards}
	opt.Client.MaxRetries = -1
	gw, err := New(ring, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return gw, backends
}

// clusterWorkload builds a deterministic fully dynamic stream: inserts
// across users/items plus deletes of a sampled prior insert.
func clusterWorkload(seed int64, users, edges int) []vos.Edge {
	rng := rand.New(rand.NewSource(seed))
	out := make([]vos.Edge, 0, edges)
	var inserted []vos.Edge
	for len(out) < edges {
		if len(inserted) > 0 && rng.Intn(10) == 0 {
			// Delete a previously inserted edge — the fully dynamic case.
			pick := inserted[rng.Intn(len(inserted))]
			out = append(out, vos.Edge{User: pick.User, Item: pick.Item, Op: vos.Delete})
			continue
		}
		e := vos.Edge{User: vos.User(rng.Intn(users)), Item: vos.Item(rng.Intn(users * 4)), Op: vos.Insert}
		out = append(out, e)
		inserted = append(inserted, e)
	}
	return out
}

// oracleFor folds a stream into a fresh single sketch — the single-engine
// ground truth every cluster answer must match bit for bit.
func oracleFor(edges []vos.Edge) *core.VOS {
	sk := core.MustNew(testSketchCfg)
	for _, e := range edges {
		sk.Process(e)
	}
	return sk
}

// ingestBatches pushes a stream through the gateway in batches.
func ingestBatches(t *testing.T, gw *Gateway, edges []vos.Edge, batch int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < len(edges); i += batch {
		end := i + batch
		if end > len(edges) {
			end = len(edges)
		}
		if err := gw.Ingest(ctx, edges[i:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// assertClusterParity checks every read surface of the gateway against
// the single-sketch oracle: serialized state byte-identical, pair
// estimates and top-K rankings equal as Go values (float64s compared
// exactly — both sides computed from the same merged array), per-user
// cardinalities equal, stats equal.
func assertClusterParity(t *testing.T, gw *Gateway, oracle *core.VOS, users int) {
	t.Helper()
	ctx := context.Background()

	gotBytes, err := gw.ExportSketch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := oracle.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("cluster export differs from the single-engine oracle (%d vs %d bytes)", len(gotBytes), len(wantBytes))
	}

	for u := vos.User(0); u < vos.User(users); u += 7 {
		v := (u*31 + 11) % vos.User(users)
		got, err := gw.Similarity(ctx, u, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.Query(u, v); got != want {
			t.Fatalf("similarity(%d,%d): cluster %+v, oracle %+v", u, v, got, want)
		}

		card, err := gw.Cardinality(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle.Cardinality(u); card != want {
			t.Fatalf("cardinality(%d): cluster %d, oracle %d", u, card, want)
		}
	}

	candidates := make([]vos.User, 0, users-1)
	probe := vos.User(1)
	for u := vos.User(0); u < vos.User(users); u++ {
		if u != probe {
			candidates = append(candidates, u)
		}
	}
	got, err := gw.TopK(ctx, probe, candidates, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.TopKRecoveredContext(ctx, oracle.RecoverSketch(probe), candidates, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("topk length: cluster %d, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("topk[%d]: cluster %+v, oracle %+v", i, got[i], want[i])
		}
	}

	st, err := gw.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Stats(); st != want {
		t.Fatalf("stats: cluster %+v, oracle %+v", st, want)
	}
}

// TestGatewayParity pins the tentpole's correctness bar in-process: for
// K ∈ {2,3,4} nodes, every gateway answer over a fully dynamic stream is
// bit-identical to a single engine (here: a single sketch, which the
// engine is itself parity-pinned against) consuming the same stream.
func TestGatewayParity(t *testing.T) {
	const users = 200
	for _, k := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("nodes=%d", k), func(t *testing.T) {
			gw, _ := newTestCluster(t, k, Options{})
			edges := clusterWorkload(int64(100+k), users, 6000)
			ingestBatches(t, gw, edges, 257)
			assertClusterParity(t, gw, oracleFor(edges), users)
		})
	}
}

// TestGatewayHandoffProperty pins handoff exactness: moving a shard to a
// fresh node mid-stream (single and double handoff) leaves the cluster's
// merged state byte-identical to both a never-rebalanced twin cluster and
// the single-sketch oracle.
func TestGatewayHandoffProperty(t *testing.T) {
	const users = 150
	for _, double := range []bool{false, true} {
		name := "single"
		if double {
			name = "double"
		}
		t.Run(name, func(t *testing.T) {
			gwA, _ := newTestCluster(t, 3, Options{})
			gwB, _ := newTestCluster(t, 3, Options{}) // never-rebalanced twin
			edges := clusterWorkload(42, users, 6000)
			half := len(edges) / 2

			ingestBatches(t, gwA, edges[:half], 211)
			ingestBatches(t, gwB, edges[:half], 211)

			fresh := newBackend(t, "")
			version, err := gwA.Handoff(context.Background(), 1, fresh.URL())
			if err != nil {
				t.Fatal(err)
			}
			if version != 2 {
				t.Fatalf("ring version after handoff: %d, want 2", version)
			}
			if ring := gwA.Ring(); ring.Shards[1] != fresh.URL() {
				t.Fatalf("shard 1 owner after handoff: %s, want %s", ring.Shards[1], fresh.URL())
			}

			if double {
				// A→B→C: the shard moves again before any further ingest
				// lands, so the second export covers exactly the first
				// import.
				fresh2 := newBackend(t, "")
				version, err = gwA.Handoff(context.Background(), 1, fresh2.URL())
				if err != nil {
					t.Fatal(err)
				}
				if version != 3 {
					t.Fatalf("ring version after double handoff: %d, want 3", version)
				}
			}

			ingestBatches(t, gwA, edges[half:], 211)
			ingestBatches(t, gwB, edges[half:], 211)

			oracle := oracleFor(edges)
			assertClusterParity(t, gwA, oracle, users)

			aBytes, err := gwA.ExportSketch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			bBytes, err := gwB.ExportSketch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(aBytes, bBytes) {
				t.Fatal("rebalanced cluster state differs from the never-rebalanced twin")
			}
		})
	}
}

// TestGatewayHandoffRacingIngest drives ingest concurrently with a
// handoff: the shard gate must hold the racing batches until the move
// completes (never fail them, never lose them), so the final state still
// matches the oracle over every acknowledged edge.
func TestGatewayHandoffRacingIngest(t *testing.T) {
	const users = 120
	gw, _ := newTestCluster(t, 3, Options{})
	edges := clusterWorkload(7, users, 8000)
	half := len(edges) / 2
	ingestBatches(t, gw, edges[:half], 199)

	fresh := newBackend(t, "")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ingestBatches(t, gw, edges[half:], 97)
	}()
	if _, err := gw.Handoff(context.Background(), 0, fresh.URL()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	assertClusterParity(t, gw, oracleFor(edges), users)
}

// TestGatewayHandoffRejects pins the membership guardrails: out-of-range
// shards, malformed targets, and — the parity-critical one — targets
// already in the ring (whose state a second merge would XOR-cancel). A
// windowed target refuses the import, and its 501 reaches the caller.
func TestGatewayHandoffRejects(t *testing.T) {
	gw, backends := newTestCluster(t, 2, Options{})
	ctx := context.Background()
	if _, err := gw.Handoff(ctx, 5, "http://127.0.0.1:1"); !errors.Is(err, ErrBadRing) {
		t.Fatalf("out-of-range shard: want ErrBadRing, got %v", err)
	}
	if _, err := gw.Handoff(ctx, 0, "not a url"); !errors.Is(err, ErrBadRing) {
		t.Fatalf("malformed target: want ErrBadRing, got %v", err)
	}
	if _, err := gw.Handoff(ctx, 0, backends[1].URL()); !errors.Is(err, ErrBadRing) {
		t.Fatalf("in-ring target: want ErrBadRing, got %v", err)
	}
	win := newDiffBackend(t, &vos.WindowConfig{Buckets: 2, BucketDuration: time.Hour})
	if _, err := gw.Handoff(ctx, 0, win.ts.URL); err == nil {
		t.Fatal("handoff to a windowed target succeeded")
	} else if status, code := server.StatusFor(err); status != http.StatusNotImplemented || code != server.CodeUnsupported {
		t.Fatalf("windowed target: %d %s (%v), want 501 %s", status, code, err, server.CodeUnsupported)
	}
	if ring := gw.Ring(); ring.Version != 1 {
		t.Fatalf("failed handoffs must not bump the ring: version %d", ring.Version)
	}
}

// TestGatewayHandoffPersistsRing verifies a handoff rewrites the on-disk
// ring document before publishing the new table.
func TestGatewayHandoffPersistsRing(t *testing.T) {
	backends := []*backendHarness{newBackend(t, ""), newBackend(t, "")}
	ringPath := filepath.Join(t.TempDir(), "ring.json")
	ring := &Ring{Version: 1, RouteSeed: 3, Shards: []string{backends[0].URL(), backends[1].URL()}}
	if err := SaveRing(ringPath, ring); err != nil {
		t.Fatal(err)
	}
	gw, err := Open(ringPath, Options{Client: client.Options{MaxRetries: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })

	ingestBatches(t, gw, clusterWorkload(3, 50, 500), 100)
	fresh := newBackend(t, "")
	if _, err := gw.Handoff(context.Background(), 0, fresh.URL()); err != nil {
		t.Fatal(err)
	}
	onDisk, err := LoadRing(ringPath)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Version != 2 || onDisk.Shards[0] != fresh.URL() {
		t.Fatalf("on-disk ring not updated: %+v", onDisk)
	}
}

// TestGatewayPartialTopK pins the degraded-read contract: with one
// backend draining (503), strict reads fail but TopKPartial answers from
// the reachable portion with complete=false — and the ranking equals an
// oracle over only the reachable shards' users.
func TestGatewayPartialTopK(t *testing.T) {
	const users = 90
	// Nothing reads before the drain, so no complete merge is cached and
	// every gather below contacts the drained backend.
	gw, backends := newTestCluster(t, 3, Options{})
	edges := clusterWorkload(11, users, 3000)
	ingestBatches(t, gw, edges, 200)
	ctx := context.Background()

	// Oracle over the edges owned by the two surviving backends.
	ring := gw.Ring()
	var reachable []vos.Edge
	for _, e := range edges {
		if ring.ShardOf(e.User) != 2 {
			reachable = append(reachable, e)
		}
	}
	if err := backends[2].srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := gw.Similarity(ctx, 1, 2); err == nil {
		t.Fatal("strict read should fail with a backend draining")
	}
	if _, err := gw.TopK(ctx, 1, []vos.User{2, 3}, 2); err == nil {
		t.Fatal("strict top-K should fail with a backend draining")
	}

	candidates := make([]vos.User, 0, users-1)
	for u := vos.User(0); u < users; u++ {
		if u != 1 {
			candidates = append(candidates, u)
		}
	}
	got, complete, err := gw.TopKPartial(ctx, 1, candidates, 10)
	if err != nil {
		t.Fatalf("partial top-K must survive one draining backend: %v", err)
	}
	if complete {
		t.Fatal("partial top-K over a degraded cluster must report complete=false")
	}
	oracle := oracleFor(reachable)
	want, err := oracle.TopKRecoveredContext(ctx, oracle.RecoverSketch(1), candidates, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("partial topk length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("partial topk[%d]: %+v, want %+v", i, got[i], want[i])
		}
	}

	// All backends down: even the partial path has nothing to answer from.
	if err := backends[0].srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := backends[1].srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := gw.TopKPartial(ctx, 1, candidates, 10); !errors.Is(err, vos.ErrQueryUnavailable) {
		t.Fatalf("zero reachable backends: want ErrQueryUnavailable, got %v", err)
	}
}

// TestGatewayPartialIngestInvalidatesSnapshot pins cache invalidation on
// a partial fan-out failure: when one shard group of a batch is applied
// and another is refused, the merged-snapshot reads (export, similarity,
// top-K, stats) must show the applied group, as the routed cardinality
// read already does, instead of the merge cached before the ingest.
func TestGatewayPartialIngestInvalidatesSnapshot(t *testing.T) {
	const users = 60
	good, empty := newBackend(t, ""), newBackend(t, "")
	// Shard 1's stand-in refuses every ingest and serves everything else
	// from a real, empty backend, so gathers still complete.
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == server.RouteEdges {
			server.WriteError(w, http.StatusInternalServerError, server.CodeInternal, "injected ingest failure")
			return
		}
		empty.srv.ServeHTTP(w, r)
	}))
	t.Cleanup(failing.Close)
	ring := &Ring{Version: 1, RouteSeed: 9, Shards: []string{good.URL(), failing.URL}}
	gw, err := New(ring, Options{Client: client.Options{MaxRetries: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })

	// Preload shard 0's users only, then read everything once: the parity
	// check leaves a complete merged snapshot in the cache.
	var applied []vos.Edge
	on := map[int]vos.User{}
	for _, e := range clusterWorkload(21, users, 2000) {
		shard := ring.ShardOf(e.User)
		on[shard] = e.User
		if shard == 0 {
			applied = append(applied, e)
		}
	}
	if len(on) != 2 {
		t.Fatalf("workload reached shards %v, want both", on)
	}
	ingestBatches(t, gw, applied, 200)
	assertClusterParity(t, gw, oracleFor(applied), users)

	// One batch, one new edge per shard: shard 0 acks, shard 1 answers 500.
	batch := []vos.Edge{
		{User: on[0], Item: 1 << 40, Op: vos.Insert},
		{User: on[1], Item: 1 << 40, Op: vos.Insert},
	}
	if err := gw.Ingest(context.Background(), batch); err == nil {
		t.Fatal("ingest with one refusing shard reported success")
	}
	assertClusterParity(t, gw, oracleFor(append(applied, batch[0])), users)
}

// TestGatewayClusterCheckpoint runs the coordinated checkpoint over
// durable backends: every node persists under a full ingest quiesce, the
// manifest records ring version and per-shard WAL positions, and the
// manifest file round-trips.
func TestGatewayClusterCheckpoint(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	backends := make([]*backendHarness, len(dirs))
	shards := make([]string, len(dirs))
	for i, dir := range dirs {
		backends[i] = newBackend(t, dir)
		shards[i] = backends[i].URL()
	}
	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	ring := &Ring{Version: 1, RouteSeed: 9, Shards: shards}
	gw, err := New(ring, Options{ManifestPath: manifestPath, Client: client.Options{MaxRetries: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })

	ingestBatches(t, gw, clusterWorkload(21, 80, 2000), 250)
	m, err := gw.CheckpointCluster(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.RingVersion != 1 || len(m.Shards) != 2 {
		t.Fatalf("manifest shape: %+v", m)
	}
	for i, s := range m.Shards {
		if s.Shard != i || s.Node != shards[i] || s.Position == 0 {
			t.Fatalf("manifest row %d: %+v", i, s)
		}
	}
	onDisk, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Shards[1].Position != m.Shards[1].Position {
		t.Fatalf("persisted manifest differs: %+v vs %+v", onDisk, m)
	}

	// The Checkpointer facade sums the per-node positions.
	pos, err := gw.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Shards[0].Position + m.Shards[1].Position; pos < want {
		t.Fatalf("summed checkpoint position %d < first manifest's %d", pos, want)
	}
}

// TestGatewayCheckpointUnsupported: memory-only backends answer 501, and
// the cluster checkpoint must surface the failure, not record a manifest.
func TestGatewayCheckpointUnsupported(t *testing.T) {
	gw, _ := newTestCluster(t, 2, Options{})
	if _, err := gw.CheckpointCluster(context.Background()); err == nil {
		t.Fatal("cluster checkpoint over memory-only backends must fail")
	}
}

// TestGatewayClosed pins the lifecycle contract: every method reports
// ErrClosed after Close, and Close is idempotent.
func TestGatewayClosed(t *testing.T) {
	gw, _ := newTestCluster(t, 2, Options{})
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := gw.Ingest(ctx, []vos.Edge{{User: 1, Item: 2, Op: vos.Insert}}); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Ingest after Close: %v", err)
	}
	if _, err := gw.Similarity(ctx, 1, 2); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Similarity after Close: %v", err)
	}
	if _, err := gw.TopK(ctx, 1, []vos.User{2}, 1); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("TopK after Close: %v", err)
	}
	if _, _, err := gw.TopKPartial(ctx, 1, []vos.User{2}, 1); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("TopKPartial after Close: %v", err)
	}
	if _, err := gw.Cardinality(ctx, 1); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Cardinality after Close: %v", err)
	}
	if _, err := gw.Stats(ctx); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Stats after Close: %v", err)
	}
	if _, err := gw.ExportSketch(ctx); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("ExportSketch after Close: %v", err)
	}
	if _, err := gw.Handoff(ctx, 0, "http://127.0.0.1:1"); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Handoff after Close: %v", err)
	}
	if _, err := gw.CheckpointCluster(ctx); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("CheckpointCluster after Close: %v", err)
	}
	// A call that passed its closed check before Close and reaches for a
	// backend after it must not be handed a fresh client nobody will close.
	if c, err := gw.backend(gw.ringRef().Shards[0]); !errors.Is(err, vos.ErrClosed) || c != nil || len(gw.backends) != 0 {
		t.Fatalf("backend after Close: client %v, err %v, %d cached", c, err, len(gw.backends))
	}
}

// TestGatewayHandler drives the gateway-only HTTP routes end to end:
// ring fetch, handoff, method gates, malformed bodies, and the error
// envelope shape.
func TestGatewayHandler(t *testing.T) {
	gw, backends := newTestCluster(t, 2, Options{})
	api := server.New(gw, server.Options{})
	gw.Register(api)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	ingestBatches(t, gw, clusterWorkload(5, 40, 400), 100)

	// GET /v1/cluster/ring
	resp, err := http.Get(ts.URL + server.RouteClusterRing)
	if err != nil {
		t.Fatal(err)
	}
	var ringResp server.RingResponse
	if err := json.NewDecoder(resp.Body).Decode(&ringResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ringResp.Version != 1 || len(ringResp.Shards) != 2 {
		t.Fatalf("ring response: %+v", ringResp)
	}

	// Method gates on every gateway route.
	for _, route := range []string{server.RouteClusterRing, server.RouteClusterHandoff, server.RouteClusterCheckpoint} {
		method := http.MethodPost
		if route != server.RouteClusterRing {
			method = http.MethodGet
		}
		req, _ := http.NewRequest(method, ts.URL+route, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env server.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || env.Error.Code != server.CodeMethodNotAllowed {
			t.Fatalf("%s %s: status %d code %q", method, route, resp.StatusCode, env.Error.Code)
		}
	}

	// Malformed handoff bodies.
	for _, body := range []string{"not json", `{"shard":0,"to":"http://h:1","x":1}`, `{"shard":0,"to":"http://h:1"} {}`} {
		resp, err := http.Post(ts.URL+server.RouteClusterHandoff, server.ContentTypeJSON, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env server.ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != server.CodeBadRequest {
			t.Fatalf("handoff body %q: status %d code %q", body, resp.StatusCode, env.Error.Code)
		}
	}

	// A ring-violating handoff maps to bad_request through the envelope.
	bad, _ := json.Marshal(server.HandoffRequest{Shard: 99, To: "http://127.0.0.1:1"})
	resp, err = http.Post(ts.URL+server.RouteClusterHandoff, server.ContentTypeJSON, bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var env server.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range handoff: status %d", resp.StatusCode)
	}

	// A real handoff over the wire.
	fresh := newBackend(t, "")
	good, _ := json.Marshal(server.HandoffRequest{Shard: 0, To: fresh.URL()})
	resp, err = http.Post(ts.URL+server.RouteClusterHandoff, server.ContentTypeJSON, bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var hr server.HandoffResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hr.Version != 2 {
		t.Fatalf("handoff over the wire: status %d version %d", resp.StatusCode, hr.Version)
	}

	// Cluster checkpoint over memory-only backends: surfaced as an
	// envelope error (the backends answer 501), not a silent manifest.
	resp, err = http.Post(ts.URL+server.RouteClusterCheckpoint, server.ContentTypeJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("cluster checkpoint over memory-only backends must not return 200")
	}

	// The standard API is served beside them.
	resp, err = http.Get(ts.URL + server.RouteStats)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", resp.StatusCode)
	}

	// A backend failure nothing can classify is a 502 on every route, the
	// standard ones included: behind a gateway it is not this process's 500.
	backends[1].ts.Close()
	fresh2 := newBackend(t, "")
	move, _ := json.Marshal(server.HandoffRequest{Shard: 1, To: fresh2.URL()})
	for _, rt := range []struct{ method, path, body string }{
		{http.MethodGet, fmt.Sprintf("%s?user=%d", server.RouteCardinality, userOn(gw.Ring(), 1)), ""},
		{http.MethodPost, server.RouteClusterHandoff, string(move)},
	} {
		if status, code, _ := do(t, rt.method, ts.URL+rt.path, rt.body); status != http.StatusBadGateway || code != server.CodeInternal {
			t.Fatalf("%s %s with its backend gone: %d %q, want 502 %q", rt.method, rt.path, status, code, server.CodeInternal)
		}
	}
}

// TestGatewayIngestValidation covers the cheap ingest edges: empty
// batches are free, cancelled contexts refuse before any network hop.
func TestGatewayIngestValidation(t *testing.T) {
	gw, _ := newTestCluster(t, 2, Options{})
	if err := gw.Ingest(context.Background(), nil); err != nil {
		t.Fatalf("empty ingest: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := gw.Ingest(ctx, []vos.Edge{{User: 1, Item: 1, Op: vos.Insert}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ingest: %v", err)
	}
}

// newFront serves gw's full HTTP surface — the standard API and the
// gateway-only routes on one server — as vosgw does.
func newFront(t *testing.T, gw *Gateway) (*server.Server, string) {
	t.Helper()
	api := server.New(gw, server.Options{})
	gw.Register(api)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return api, ts.URL
}

// do sends one request and returns the status, the envelope code (empty on
// 2xx) and the headers.
func do(t *testing.T, method, url, body string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", server.ContentTypeJSON)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env server.ErrorEnvelope
	if resp.StatusCode >= 400 {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s %s: status %d without an envelope: %v", method, url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode, env.Error.Code, resp.Header
}

// TestGatewayRoutesDrain pins that the gateway-only routes sit behind the
// same drain gate and in-flight tracking as the standard ones: Drain waits
// for a running handoff, and a draining gateway answers all three routes
// 503 draining — it must not start moving a shard on its way out.
func TestGatewayRoutesDrain(t *testing.T) {
	gw, _ := newTestCluster(t, 2, Options{})
	api, front := newFront(t, gw)
	ingestBatches(t, gw, clusterWorkload(5, 40, 400), 100)

	// The handoff target parks its import until released.
	fresh := newBackend(t, "")
	importing, release := make(chan struct{}), make(chan struct{})
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == server.RouteClusterImport {
			close(importing)
			<-release
		}
		fresh.srv.ServeHTTP(w, r)
	}))
	t.Cleanup(target.Close)
	unpark := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unpark) // before target.Close, which waits for the parked request

	body, _ := json.Marshal(server.HandoffRequest{Shard: 0, To: target.URL})
	handoff := make(chan int, 1)
	go func() {
		resp, err := http.Post(front+server.RouteClusterHandoff, server.ContentTypeJSON, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			handoff <- 0
			return
		}
		resp.Body.Close()
		handoff <- resp.StatusCode
	}()
	<-importing
	drained := make(chan error, 1)
	go func() { drained <- api.Drain(context.Background()) }()
	for !api.Draining() {
		time.Sleep(time.Millisecond)
	}

	for _, rt := range []struct{ method, route string }{
		{http.MethodGet, server.RouteClusterRing},
		{http.MethodPost, server.RouteClusterHandoff},
		{http.MethodPost, server.RouteClusterCheckpoint},
	} {
		status, code, _ := do(t, rt.method, front+rt.route, `{"shard":1,"to":"http://127.0.0.1:1"}`)
		if status != http.StatusServiceUnavailable || code != server.CodeDraining {
			t.Errorf("draining %s %s: %d %q, want 503 %q", rt.method, rt.route, status, code, server.CodeDraining)
		}
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a handoff in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	unpark()
	if status := <-handoff; status != http.StatusOK {
		t.Fatalf("the handoff admitted before the drain: status %d", status)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if ring := gw.Ring(); ring.Version != 2 || ring.Shards[0] != target.URL {
		t.Fatalf("ring after the drained handoff: %+v", ring)
	}
}

// TestGatewayRoutesInMetrics pins that a gateway-only route is counted like
// any other: one request to it is one request in /v1/metrics.
func TestGatewayRoutesInMetrics(t *testing.T) {
	gw, _ := newTestCluster(t, 2, Options{})
	_, front := newFront(t, gw)
	if status, _, _ := do(t, http.MethodGet, front+server.RouteClusterRing, ""); status != http.StatusOK {
		t.Fatalf("ring: status %d", status)
	}
	resp, err := http.Get(front + server.RouteMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{server.RouteClusterRing, server.RouteClusterHandoff, server.RouteClusterCheckpoint} {
		if _, ok := m.Endpoints[route]; !ok {
			t.Errorf("/v1/metrics has no row for %s", route)
		}
	}
	if got := m.Endpoints[server.RouteClusterRing].Requests; got != 1 {
		t.Fatalf("%s requests = %d after one request", server.RouteClusterRing, got)
	}
}

// refusingBackend is a real, empty backend whose POST /v1/edges is answered
// by refuse first; a false return hands the request to the backend.
func refusingBackend(t *testing.T, refuse func(w http.ResponseWriter) bool) string {
	t.Helper()
	real := newBackend(t, "")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == server.RouteEdges && refuse(w) {
			return
		}
		real.srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// userOn returns a user the ring routes to shard.
func userOn(ring *Ring, shard int) vos.User {
	for u := vos.User(0); ; u++ {
		if ring.ShardOf(u) == shard {
			return u
		}
	}
}

// TestGatewayBackendRefusal pins what a backend's own refusal of an ingest
// looks like from outside the gateway. Refused whole — nothing applied
// anywhere — it is the backend's answer, Retry-After included, because the
// caller can act on it. The moment any part of the batch was applied it is
// an opaque 5xx: XOR writes are not idempotent, so a partly applied batch
// must never look retryable.
func TestGatewayBackendRefusal(t *testing.T) {
	backpressure := func(w http.ResponseWriter) bool {
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusTooManyRequests, server.CodeBackpressure, "injected backpressure")
		return true
	}
	tooLarge := func(w http.ResponseWriter) bool {
		server.WriteError(w, http.StatusRequestEntityTooLarge, server.CodeTooLarge, "injected too_large")
		return true
	}
	post := func(t *testing.T, shards []string, opt client.Options, users ...vos.User) (int, string, http.Header) {
		t.Helper()
		opt.MaxRetries = -1
		gw, err := New(&Ring{Version: 1, RouteSeed: 9, Shards: shards}, Options{Client: opt})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { gw.Close() })
		_, front := newFront(t, gw)
		batch := make([]server.EdgeJSON, len(users))
		for i, u := range users {
			batch[i] = server.EdgeJSON{User: uint64(u), Item: uint64(i)}
		}
		body, _ := json.Marshal(batch)
		return do(t, http.MethodPost, front+server.RouteEdges, string(body))
	}

	t.Run("refused whole: 429 with Retry-After", func(t *testing.T) {
		status, code, hdr := post(t, []string{refusingBackend(t, backpressure)}, client.Options{}, 1, 2, 3)
		if status != http.StatusTooManyRequests || code != server.CodeBackpressure || hdr.Get("Retry-After") == "" {
			t.Fatalf("got %d %q Retry-After=%q, want the backend's 429 backpressure with a Retry-After", status, code, hdr.Get("Retry-After"))
		}
	})
	t.Run("refused whole: 413", func(t *testing.T) {
		status, code, _ := post(t, []string{refusingBackend(t, tooLarge)}, client.Options{}, 1, 2, 3)
		if status != http.StatusRequestEntityTooLarge || code != server.CodeTooLarge {
			t.Fatalf("got %d %q, want the backend's 413 too_large", status, code)
		}
	})
	t.Run("one shard acked, one refused: opaque", func(t *testing.T) {
		shards := []string{newBackend(t, "").URL(), refusingBackend(t, backpressure)}
		ring := &Ring{Version: 1, RouteSeed: 9, Shards: shards}
		status, code, hdr := post(t, shards, client.Options{}, userOn(ring, 0), userOn(ring, 1))
		if status < 500 || code != server.CodeInternal || hdr.Get("Retry-After") != "" {
			t.Fatalf("got %d %q Retry-After=%q: a partly applied batch must not look retryable", status, code, hdr.Get("Retry-After"))
		}
	})
	t.Run("first wire batch acked, second refused: opaque", func(t *testing.T) {
		var calls atomic.Int32
		secondRefused := func(w http.ResponseWriter) bool { return calls.Add(1) > 1 && backpressure(w) }
		status, code, _ := post(t, []string{refusingBackend(t, secondRefused)}, client.Options{BatchSize: 2}, 1, 2, 3)
		if status < 500 || code != server.CodeInternal {
			t.Fatalf("got %d %q: a group whose first batch was applied must not look retryable", status, code)
		}
	})
}

// TestGatewayBackendBadExport pins whose fault an undecodable export is. A
// backend that serves garbage — or another hash family's state — on
// GET /v1/cluster/sketch has failed behind the gateway: the caller's read
// was well-formed, so it is a 502, not the 400 the same decode error earns
// a client whose own POST /v1/cluster/import body is bad.
func TestGatewayBackendBadExport(t *testing.T) {
	fast, err := core.MustNew(core.Config{MemoryBits: 1 << 14, SketchBits: 256, Seed: 5, Family: 1}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fast[4+8+7] = 0x7f // the family tag: one no decoder knows
	for name, export := range map[string][]byte{"garbage": []byte("not a sketch"), "unknown family": fast} {
		t.Run(name, func(t *testing.T) {
			real := newBackend(t, "")
			bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet && r.URL.Path == server.RouteClusterSketch {
					w.Header().Set("Content-Type", "application/octet-stream")
					w.Write(export)
					return
				}
				real.srv.ServeHTTP(w, r)
			}))
			t.Cleanup(bad.Close)
			gw, err := New(&Ring{Version: 1, RouteSeed: 9, Shards: []string{newBackend(t, "").URL(), bad.URL}},
				Options{Client: client.Options{MaxRetries: -1}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { gw.Close() })
			_, front := newFront(t, gw)
			status, code, _ := do(t, http.MethodGet, front+server.RouteSimilarity+"?u=1&v=2", "")
			if status != http.StatusBadGateway || code != server.CodeInternal {
				t.Errorf("a read over a backend serving a bad export: %d %q, want 502 %q", status, code, server.CodeInternal)
			}
			// The same bytes as a client's own import body are the client's fault.
			if status, code, _ := do(t, http.MethodPost, real.URL()+server.RouteClusterImport, string(export)); status != http.StatusBadRequest || code != server.CodeBadRequest {
				t.Errorf("POST %s with a bad body: %d %q, want 400 %q", server.RouteClusterImport, status, code, server.CodeBadRequest)
			}
		})
	}
}

// TestIngestDoesNotKeepTheSlice holds Gateway.Ingest to
// SimilarityService.Ingest's rule — the slice is the caller's again when the
// call returns — as the root package's test of the same name holds the
// in-process services: calls of uneven length, each slice filled with
// garbage the moment Ingest returns, and the merged export compared with
// the single-sketch oracle over the logical stream. The gateway's groups
// are one copy of the slice and its clients encode them where they lie, so
// a group that outlived the call would show here.
func TestIngestDoesNotKeepTheSlice(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("nodes=%d", k), func(t *testing.T) {
			gw, _ := newTestCluster(t, k, Options{Client: client.Options{BatchSize: 64}})
			edges := clusterWorkload(int64(40+k), 200, 8000)
			ctx := context.Background()
			scratch := make([]vos.Edge, 0, 1500)
			for off, step := 0, 1; off < len(edges); step = step*3%1499 + 1 {
				call := append(scratch[:0], edges[off:min(off+step, len(edges))]...)
				off += len(call)
				if err := gw.Ingest(ctx, call); err != nil {
					t.Fatal(err)
				}
				for i := range call {
					call[i] = vos.Edge{User: 0xdead0000 + vos.User(i), Item: 0xbeef, Op: vos.Delete}
				}
			}
			got, err := gw.ExportSketch(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleFor(edges).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("the cluster's state is not the stream's: the slice was read after Ingest returned")
			}
		})
	}
}

// TestGatewayIngestUserRange: a user id the wire cannot carry refuses the
// slice whole, before any backend is written to — not one group's failure
// beside the other groups' writes.
func TestGatewayIngestUserRange(t *testing.T) {
	gw, _ := newTestCluster(t, 3, Options{})
	ctx := context.Background()
	edges := clusterWorkload(7, 50, 300)
	edges = append(edges, vos.Edge{User: 1<<63 | 5, Item: 7, Op: vos.Insert})
	if err := gw.Ingest(ctx, edges); !errors.Is(err, vos.ErrUserRange) {
		t.Fatalf("Ingest: error %v, want vos.ErrUserRange", err)
	}
	st, err := gw.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.OnesCount != 0 || st.Users != 0 {
		t.Fatalf("a refused slice reached the backends: %+v", st)
	}
}
