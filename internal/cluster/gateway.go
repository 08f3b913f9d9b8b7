package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/poscache"
	"github.com/vossketch/vos/internal/resident"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/server"
)

// Options tunes a Gateway. The zero value selects the defaults.
type Options struct {
	// ManifestPath, when set, is where CheckpointCluster records its
	// manifest.
	ManifestPath string
	// Client tunes the per-backend HTTP clients (retry policy, transport,
	// batch size). Linger is forced off: the gateway ships every ingest
	// synchronously and past the clients' buffers (client.Send), because
	// its own ack must mean "acked by the owning backend's WAL" — a
	// gateway-side buffer would acknowledge edges a backend crash could
	// lose.
	Client client.Options
}

// Gateway is the vosgw routing tier: one instance fans ingest to the
// ring's backends by user shard and answers every read from the XOR-merge
// of their sketches. It implements vos.SimilarityService, the Checkpointer,
// PartialTopK and StatsReporter extensions and, of state transfer,
// StateExporter only (no StateSync), so server.New serves it exactly as it
// serves an engine — the cluster speaks the same /v1/ API as a single node.
//
// Parity model: VOS state is pure parity, so for ANY partition of the
// stream the XOR of the parts' sketches equals the sketch of the whole.
// The gateway routes each user's edges to one owning backend (keeping
// per-user cardinalities exact and node-local) and merges all backends
// for queries — bit-identical to a single engine over the same stream,
// which the cluster parity tests pin for 2/3/4 nodes across crashes and
// live handoffs.
type Gateway struct {
	opt      Options
	ringPath string // the ring document Open loaded; every handoff rewrites it

	// mu guards ring and backends. The ring is replaced, never mutated, so
	// readers take the pointer under RLock (ringRef) and use it lock-free.
	mu       sync.RWMutex
	ring     *Ring
	backends map[string]*client.Client

	// gates serialize handoff against ingest per cluster shard: forward
	// holds the shard's RLock across "resolve owner, ship, ack", Handoff
	// holds Lock while it moves the state — so no edge can land on the
	// source after its state was exported (it would be lost to the
	// merge), and ingest never fails during a handoff, it just waits.
	gates []sync.RWMutex

	// ingests counts ingest calls that were fanned out, acknowledged or
	// not (a failed forward may have applied); with the ring version it
	// says whether the published merged view is current. Reading it BEFORE
	// the gather makes a stale hit impossible: a racing ingest bumps the
	// counter and the next query refreshes.
	ingests atomic.Uint64

	// views is the merged query snapshot (see snapshot.go), kept current from
	// the writes logged per slot in logs and the backends' journal suffixes.
	// src drives it; gathered counts the bytes the backends sent for it, and
	// localReplays the refreshes that asked no backend.
	views        resident.Pair[gatherStamp]
	src          *gatherSource
	logs         []slotLog
	gathered     atomic.Uint64
	localReplays atomic.Uint64

	// pcache is shared across every merged view, same as the engine's:
	// position tables depend only on user and config.
	pcache *poscache.Cache

	closed atomic.Bool
}

// New builds a Gateway over a validated ring.
func New(ring *Ring, opt Options) (*Gateway, error) {
	if err := ring.Validate(); err != nil {
		return nil, err
	}
	// Nothing is ever buffered (see Options.Client), so no client needs a
	// linger goroutine.
	opt.Client.Linger = -1
	g := &Gateway{
		opt:      opt,
		ring:     ring.Clone(),
		backends: make(map[string]*client.Client),
		gates:    make([]sync.RWMutex, ring.NumShards()),
		logs:     make([]slotLog, ring.NumShards()),
		pcache:   poscache.New(4096),
	}
	g.src = &gatherSource{g}
	return g, nil
}

// Open is New from an on-disk ring document; membership changes are
// persisted back to the same path.
func Open(ringPath string, opt Options) (*Gateway, error) {
	ring, err := LoadRing(ringPath)
	if err != nil {
		return nil, err
	}
	g, err := New(ring, opt)
	if err != nil {
		return nil, err
	}
	g.ringPath = ringPath
	return g, nil
}

// Compile-time interface checks: the gateway is a full service peer.
var (
	_ vos.SimilarityService = (*Gateway)(nil)
	_ vos.Checkpointer      = (*Gateway)(nil)
	_ vos.StateExporter     = (*Gateway)(nil)
	_ vos.PartialTopK       = (*Gateway)(nil)
	_ vos.StatsReporter     = (*Gateway)(nil)
)

// Ring returns a copy of the live membership table.
func (g *Gateway) Ring() *Ring { return g.ringRef().Clone() }

// ringRef returns the live membership table itself, for reading only.
func (g *Gateway) ringRef() *Ring {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.ring
}

// Close shuts down every backend client. It does not touch the backends
// themselves — their lifecycle belongs to their operators.
func (g *Gateway) Close() error {
	if !g.closed.CompareAndSwap(false, true) {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var first error
	for _, c := range g.backends {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	g.backends = make(map[string]*client.Client)
	return first
}

// backend returns (building lazily) the client for a backend base URL.
// Closed is checked under the lock Close empties the map under, so a call
// racing Close cannot leave behind a client nobody will close.
func (g *Gateway) backend(url string) (*client.Client, error) {
	g.mu.RLock()
	c := g.backends[url]
	g.mu.RUnlock()
	if c != nil {
		return c, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed.Load() {
		return nil, vos.ErrClosed
	}
	if c := g.backends[url]; c != nil {
		return c, nil
	}
	c = client.New(url, g.opt.Client)
	g.backends[url] = c
	return c, nil
}

// --- ingest ---

// Ingest implements vos.SimilarityService: edges are grouped by owning
// cluster shard and shipped to each owner concurrently, synchronously —
// when Ingest returns nil every edge is acked by its backend (durably,
// under the backend's sync policy). Routing uses the ring's seed and
// shard count, both fixed for the cluster's life, so a user's shard never
// changes; handoffs move whole shards between nodes without re-routing
// anyone.
//
// A failed Ingest is retryable only when the backends say so themselves:
// every group was refused whole (a 4xx, before anything was applied), and
// then the backends' own status — 429 backpressure, 413 too_large — is the
// error's. Otherwise the error is a partialIngest, which shows no backend's
// status: XOR writes are not idempotent, and a batch that was, or may have
// been, partly applied must never look retryable.
//
// The slice stays the caller's: the groups are one copy of it, in pooled
// scratch (stream.Partitioner) that the backends' clients encode where it
// lies and that goes back when the last of them has returned. The last group
// is sent on the caller's goroutine: a fan-out one backend wide starts none.
func (g *Gateway) Ingest(ctx context.Context, edges []vos.Edge) error {
	if g.closed.Load() {
		return vos.ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(edges) == 0 {
		return nil
	}
	// Refused here the slice is refused whole; left to the backends' clients
	// it would be one group's failure beside other groups' writes.
	if err := stream.CheckUsers(edges); err != nil {
		return err
	}
	ring := g.ringRef()
	var wg sync.WaitGroup
	var errs []error
	allRefused := true
	var errMu sync.Mutex
	send := func(shard int, group []vos.Edge) {
		refused, err := g.forward(ctx, shard, group)
		errMu.Lock()
		allRefused = allRefused && refused
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", shard, err))
		}
		errMu.Unlock()
	}
	p := partitioners.Get().(*stream.Partitioner)
	groups := p.Partition(edges, ring.NumShards(), ring.RouteSeed)
	last := len(groups) - 1
	for last > 0 && len(groups[last]) == 0 {
		last--
	}
	for shard, group := range groups[:last] {
		if len(group) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				send(shard, group)
			}()
		}
	}
	send(last, groups[last])
	wg.Wait()
	// The gateway has no word of a slot this call did not reach.
	for shard, group := range groups {
		if len(group) == 0 {
			g.logs[shard].add(nil, vos.SketchSpan{})
		}
	}
	partitioners.Put(p)
	// Invalidate on failure too: a forward that errored or timed out may
	// still have applied, and the shards that acked certainly did. The logs
	// have the call's entries by now, so a read that sees the count sees them.
	g.ingests.Add(1)
	err := errors.Join(errs...)
	if err != nil && !allRefused {
		return partialIngest{err}
	}
	return err
}

var partitioners = sync.Pool{New: func() any { return new(stream.Partitioner) }}

// partialIngest is the error of a fan-out some of which was, or may have
// been, applied. It answers errors.Is for the causes underneath (a
// cancelled context is still one) but does not unwrap, so no backend's
// HTTPStatus shows through it to server.StatusFor.
type partialIngest struct{ err error }

func (e partialIngest) Error() string        { return e.err.Error() }
func (e partialIngest) Is(target error) bool { return errors.Is(e.err, target) }

// forward ships one shard's edges to its owner under the shard's handoff
// gate. The owner is resolved INSIDE the gate: a handoff completing just
// before we enter has already moved the state, so the edges must go to
// the new owner — resolving earlier could write to a node whose state was
// already exported, losing the edges from every future merge. refused
// reports a failure that is the backend turning the whole group away: its
// first batch came back a 4xx, so none of the group was applied. The slot's
// log gets the group and its span, or a mark when the landing is unknown.
func (g *Gateway) forward(ctx context.Context, shard int, edges []vos.Edge) (refused bool, err error) {
	g.gates[shard].RLock()
	defer g.gates[shard].RUnlock()
	var span vos.SketchSpan
	defer func() { g.logs[shard].add(edges, span) }()
	url := g.ringRef().Shards[shard]
	c, err := g.backend(url)
	if err != nil {
		return false, err
	}
	acked, landed, err := c.Send(ctx, edges)
	if err == nil {
		span = landed
		return false, nil
	}
	var apiErr *client.Error
	refused = acked == 0 && errors.As(err, &apiErr) && apiErr.Status < http.StatusInternalServerError
	return refused, &backendError{url, err}
}

// backendError is a failed call to the backend at url. Whatever
// server.StatusFor can classify keeps its status and code — the backend's
// own answer (*client.Error) first — and a failure nobody can classify (a
// backend's own 500 included) is a 502 where a vosd would answer 500: behind
// a gateway it came from a backend, not from this process. So did an export
// this process could not decode: StatusFor's 400 for those errors is for a
// client's own import body.
type backendError struct {
	url string
	err error
}

func (e *backendError) Error() string { return "backend " + e.url + ": " + e.err.Error() }
func (e *backendError) Unwrap() error { return e.err }

func (e *backendError) HTTPStatus() (status int, code string) {
	status, code = server.StatusFor(e.err)
	if status == http.StatusInternalServerError || errors.Is(e.err, vos.ErrCorruptSketch) || errors.Is(e.err, vos.ErrFamilyMismatch) {
		return http.StatusBadGateway, server.CodeInternal
	}
	return status, code
}

// --- merged reads (the views themselves are in snapshot.go) ---

// Similarity implements vos.SimilarityService from the full cluster merge
// (strict: every backend must answer — a pair estimate over partial state
// would be silently wrong, exactly what the typed service contract
// forbids).
func (g *Gateway) Similarity(ctx context.Context, u, v vos.User) (vos.Estimate, error) {
	snap, err := g.acquire(ctx)
	if err != nil {
		return vos.Estimate{}, err
	}
	defer snap.Release()
	return snap.Sk.Query(u, v), nil
}

// TopK implements vos.SimilarityService from the full cluster merge,
// scored by the same core.TopKRecoveredContext scan a single engine runs —
// so the ranking is bit-identical to that engine's.
func (g *Gateway) TopK(ctx context.Context, u vos.User, candidates []vos.User, n int) ([]vos.TopKResult, error) {
	snap, err := g.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	return snap.Sk.TopKRecoveredContext(ctx, snap.Sk.RecoverSketch(u), candidates, n)
}

// TopKPartial implements vos.PartialTopK: like TopK, but unreachable
// backends degrade the answer (complete=false) instead of failing it —
// the ranking then covers the reachable portion of the cluster. The
// server surfaces the flag as the X-Vos-Partial header. A degraded answer
// comes from a one-off merge of the reachable backends' full exports that
// is never published: the resident views only ever hold complete state.
func (g *Gateway) TopKPartial(ctx context.Context, u vos.User, candidates []vos.User, n int) ([]vos.TopKResult, bool, error) {
	snap, err := g.acquire(ctx)
	if err == nil {
		defer snap.Release()
		top, err := snap.Sk.TopKRecoveredContext(ctx, snap.Sk.RecoverSketch(u), candidates, n)
		return top, err == nil, err
	}
	if errors.Is(err, vos.ErrClosed) || ctx.Err() != nil {
		return nil, false, err
	}
	ring := g.ringRef()
	parts := make([]part, ring.NumShards())
	g.gather(ctx, ring, parts, nil)
	sk, complete, err := g.merge(parts, true)
	if err != nil {
		return nil, false, err
	}
	top, err := sk.TopKRecoveredContext(ctx, sk.RecoverSketch(u), candidates, n)
	return top, complete && err == nil, err
}

// Cardinality implements vos.SimilarityService by routing to the owning
// backend — the one read that IS node-local: a user's edges all live on
// its owner, so the owner's count is the exact global count.
func (g *Gateway) Cardinality(ctx context.Context, u vos.User) (int64, error) {
	if g.closed.Load() {
		return 0, vos.ErrClosed
	}
	ring := g.ringRef()
	url := ring.Shards[ring.ShardOf(u)]
	c, err := g.backend(url)
	if err != nil {
		return 0, err
	}
	n, err := c.Cardinality(ctx, u)
	if err != nil {
		return 0, &backendError{url, err}
	}
	return n, nil
}

// Stats implements vos.SimilarityService from the full cluster merge.
// Summing per-backend stats would misreport every global quantity (β is
// the merged array's ones-fraction, not a sum), so stats pay for a gather
// like the other merged reads.
func (g *Gateway) Stats(ctx context.Context) (vos.Stats, error) {
	snap, err := g.acquire(ctx)
	if err != nil {
		return vos.Stats{}, err
	}
	defer snap.Release()
	return snap.Sk.Stats(), nil
}

// ExportSketch implements vos.StateExporter: the serialized cluster-wide
// merge. A cluster's export is bit-identical to the export of a single
// engine over the same stream — the property the parity tests compare.
func (g *Gateway) ExportSketch(ctx context.Context) ([]byte, error) {
	snap, err := g.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	return snap.Sk.MarshalBinary()
}

// --- handoff ---

// Handoff moves cluster shard shard onto the backend at to: quiesce the
// shard's ingest (writers queue on the gate), export the source node's
// state, import it into the target (which checkpoints durably before
// acking), bump and persist the ring, release. XOR-mergeability is what
// makes this exact: the target's merged state equals the source's, bit
// for bit, so cluster answers are unchanged across the move.
//
// The target must be FRESH — not in the ring. Every gather iterates ring
// entries, so importing into a node that already owns a shard would merge
// that node's state into the cluster twice, XOR-cancelling it. For the
// same reason a handoff that failed AFTER the import may have left state
// on the target; it must not be replayed against the same target (the
// second import would cancel the first) — rerun it with a fresh node.
//
// It returns the new ring version.
func (g *Gateway) Handoff(ctx context.Context, shard int, to string) (uint64, error) {
	if g.closed.Load() {
		return 0, vos.ErrClosed
	}
	if err := validateNodeURL(to); err != nil {
		return 0, fmt.Errorf("%w: handoff target: %v", ErrBadRing, err)
	}
	// The shard count is fixed for the gateway's life (it defines the user
	// partition), so the range check is safe before taking the gate.
	if shard < 0 || shard >= len(g.gates) {
		return 0, fmt.Errorf("%w: shard %d outside [0, %d)", ErrBadRing, shard, len(g.gates))
	}
	g.gates[shard].Lock()
	defer g.gates[shard].Unlock()

	ring := g.ringRef()
	for i, node := range ring.Shards {
		if node == to {
			return 0, fmt.Errorf("%w: handoff target %s already owns shard %d (targets must be fresh: a second import would XOR-cancel its state)", ErrBadRing, to, i)
		}
	}
	from := ring.Shards[shard]

	src, err := g.backend(from)
	if err != nil {
		return 0, err
	}
	dst, err := g.backend(to)
	if err != nil {
		return 0, err
	}
	state, err := src.ExportSketch(ctx)
	if err != nil {
		return 0, fmt.Errorf("handoff shard %d: export: %w", shard, &backendError{from, err})
	}
	if err := dst.ImportSketch(ctx, state); err != nil {
		return 0, fmt.Errorf("handoff shard %d: import: %w", shard, &backendError{to, err})
	}

	next := ring.Clone()
	next.Shards[shard] = to
	next.Version++
	if g.ringPath != "" {
		// Persist before publishing: a crash between the two leaves the
		// on-disk ring ahead of (never behind) the served one, and a
		// restart serving the new ring is correct — the state moved.
		if err := SaveRing(g.ringPath, next); err != nil {
			return 0, fmt.Errorf("handoff shard %d: persist ring: %w", shard, err)
		}
	}

	g.mu.Lock()
	g.ring = next
	old := g.backends[from]
	delete(g.backends, from)
	g.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
	return next.Version, nil
}

// --- cluster checkpoint ---

// CheckpointCluster quiesces ALL ingest (every shard gate held), triggers
// each backend's durable checkpoint, and returns the manifest — a
// consistent cut: no edge is in flight while the backends persist, so
// the recorded positions jointly cover exactly the acknowledged stream.
// The manifest is persisted when Options.ManifestPath is set.
func (g *Gateway) CheckpointCluster(ctx context.Context) (*Manifest, error) {
	if g.closed.Load() {
		return nil, vos.ErrClosed
	}
	// Ascending gate order matches every other multi-gate path (there are
	// none today, but the discipline is free) and prevents deadlock with
	// future ones.
	for i := range g.gates {
		g.gates[i].Lock()
		defer g.gates[i].Unlock()
	}
	ring := g.ringRef()
	m := &Manifest{RingVersion: ring.Version, RouteSeed: ring.RouteSeed, Shards: make([]ManifestShard, ring.NumShards())}
	for i, url := range ring.Shards {
		c, err := g.backend(url)
		if err != nil {
			return nil, err
		}
		pos, err := c.Checkpoint(ctx)
		if err != nil {
			return nil, fmt.Errorf("cluster checkpoint: shard %d: %w", i, &backendError{url, err})
		}
		m.Shards[i] = ManifestShard{Shard: i, Node: url, Position: pos}
	}
	if g.opt.ManifestPath != "" {
		if err := SaveManifest(g.opt.ManifestPath, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Checkpoint implements vos.Checkpointer by delegating to
// CheckpointCluster; the returned position is the SUM of the backends'
// WAL positions — an aggregate progress marker, not a seekable offset
// (use CheckpointCluster for the per-node manifest).
func (g *Gateway) Checkpoint(ctx context.Context) (uint64, error) {
	m, err := g.CheckpointCluster(ctx)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, s := range m.Shards {
		sum += s.Position
	}
	return sum, nil
}

// --- gateway HTTP surface ---

// Register puts the gateway-only routes (ring, handoff, cluster checkpoint)
// on srv — the server.New(g, ...) that serves the standard API over this
// gateway — through the same Handle the standard routes go through, so they
// drain, count in /v1/metrics and log like the rest: Drain waits for a
// running handoff and refuses a new one.
func (g *Gateway) Register(srv *server.Server) {
	srv.Handle(server.RouteClusterRing, http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		ring := g.ringRef()
		server.WriteJSON(w, http.StatusOK, server.RingResponse{Version: ring.Version, RouteSeed: ring.RouteSeed, Shards: ring.Shards})
	})
	srv.Handle(server.RouteClusterHandoff, http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		var req server.HandoffRequest
		if err := server.DecodeJSONBody(r, MaxRingBytes, &req); err != nil {
			server.WriteBodyError(w, err)
			return
		}
		version, err := g.Handoff(r.Context(), req.Shard, req.To)
		if err != nil {
			server.WriteServiceError(w, err)
			return
		}
		server.WriteJSON(w, http.StatusOK, server.HandoffResponse{Version: version})
	})
	srv.Handle(server.RouteClusterCheckpoint, http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		m, err := g.CheckpointCluster(r.Context())
		if err != nil {
			server.WriteServiceError(w, err)
			return
		}
		resp := server.ClusterCheckpointResponse{RingVersion: m.RingVersion, Shards: make([]server.ClusterNodeCheckpointJSON, len(m.Shards))}
		for i, s := range m.Shards {
			resp.Shards[i] = server.ClusterNodeCheckpointJSON(s)
		}
		server.WriteJSON(w, http.StatusOK, resp)
	})
}
