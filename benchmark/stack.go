package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/admit"
	"github.com/vossketch/vos/internal/cluster"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/engine"
	"github.com/vossketch/vos/internal/netproto"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/internal/wal"
	"github.com/vossketch/vos/server"
)

// stack is the program under test as one workload deploys it. The runner
// drives every workload through this interface; the layers between the
// call and the sketch are what differ.
type stack interface {
	// ingest hands one batch to the write path; sync returns once every
	// batch handed over so far is applied and visible to reads.
	ingest(ctx context.Context, edges []stream.Edge) error
	sync(ctx context.Context) error
	// rotate moves a windowed stack's stream clock one bucket on.
	rotate(ctx context.Context) error
	similarity(ctx context.Context, u, v stream.User) (core.Estimate, error)
	// topK answers the workload's top-K read for probe u.
	topK(ctx context.Context, u stream.User) ([]core.TopKResult, error)
	cardinality(ctx context.Context, u stream.User) (int64, error)
	// export returns the serialized merged state.
	export(ctx context.Context) ([]byte, error)
	// check reports anything the stack's own ledgers hold against the run.
	check() error
	// engines exposes the engines behind the stack for their public stats.
	engines() []*engine.Engine
	close() error
}

// conns bounds the loopback connections a stack's clients open.
func conns() int { return runtime.NumCPU() }

// newStack builds the stack a workload names. dir is a scratch directory
// of the run; tr is nil on untraced runs, which then get no decorator, no
// handler wrapper and no transport wrapper at all.
func newStack(w workloadSpec, cands []stream.User, dir string, tr *tracer) (stack, error) {
	switch w.stack {
	case stackEmbed:
		return newEmbedStack(w, cands, tr)
	case stackHTTP:
		return newHTTPStack(w, cands, dir, tr)
	case stackUDP:
		return newUDPStack(w, tr)
	case stackCluster:
		return newClusterStack(w, cands, tr)
	}
	return nil, fmt.Errorf("benchmark: unknown stack %q", w.stack)
}

// --- embed: the in-process engine ---

type embedStack struct {
	eng   *engine.Engine
	cands []stream.User
	tr    *tracer
}

// engineConfig is the configuration of every engine a workload builds.
func engineConfig(w workloadSpec) engine.Config {
	return engine.Config{Sketch: w.sketch, Shards: w.shards, PositionCacheUsers: w.posCache}
}

func newEmbedStack(w workloadSpec, cands []stream.User, tr *tracer) (*embedStack, error) {
	eng, err := vos.NewEngine(engineConfig(w))
	if err != nil {
		return nil, err
	}
	return &embedStack{eng: eng, cands: cands, tr: tr}, nil
}

func (s *embedStack) ingest(ctx context.Context, edges []stream.Edge) error {
	_, end := s.tr.start(ctx, "engine.process_batch")
	defer end()
	return s.eng.ProcessBatch(edges)
}

func (s *embedStack) sync(ctx context.Context) error {
	_, end := s.tr.start(ctx, "engine.flush")
	defer end()
	s.eng.Flush()
	return nil
}

func (s *embedStack) rotate(context.Context) error { return nil }

func (s *embedStack) similarity(ctx context.Context, u, v stream.User) (core.Estimate, error) {
	_, end := s.tr.start(ctx, "engine.query")
	defer end()
	return s.eng.QueryContext(ctx, u, v)
}

func (s *embedStack) topK(ctx context.Context, u stream.User) ([]core.TopKResult, error) {
	_, end := s.tr.start(ctx, "engine.topk")
	defer end()
	return s.eng.TopKContext(ctx, u, s.cands, topN)
}

func (s *embedStack) cardinality(ctx context.Context, u stream.User) (int64, error) {
	return s.eng.CardinalityContext(ctx, u)
}

func (s *embedStack) export(context.Context) ([]byte, error) { return s.eng.MarshalBinary() }
func (s *embedStack) check() error                           { return nil }
func (s *embedStack) engines() []*engine.Engine              { return []*engine.Engine{s.eng} }
func (s *embedStack) close() error                           { return s.eng.Close() }

// --- service decorator and loopback node, shared by http and cluster ---

// tracedService sits between package server and the engine service it
// serves: the time inside it is the engine's share of a request.
type tracedService struct {
	vos.SimilarityService
	tr *tracer
}

func (s tracedService) Ingest(ctx context.Context, edges []vos.Edge) error {
	ctx, end := s.tr.start(ctx, "service.ingest")
	defer end()
	return s.SimilarityService.Ingest(ctx, edges)
}

func (s tracedService) Similarity(ctx context.Context, u, v vos.User) (vos.Estimate, error) {
	ctx, end := s.tr.start(ctx, "service.similarity")
	defer end()
	return s.SimilarityService.Similarity(ctx, u, v)
}

func (s tracedService) TopK(ctx context.Context, u vos.User, cands []vos.User, n int) ([]vos.TopKResult, error) {
	ctx, end := s.tr.start(ctx, "service.topk")
	defer end()
	return s.SimilarityService.TopK(ctx, u, cands, n)
}

// ExportSketch keeps the engine service's state-transfer capability, which
// the embedded interface alone would hide from package server.
func (s tracedService) ExportSketch(ctx context.Context) ([]byte, error) {
	ctx, end := s.tr.start(ctx, "service.export")
	defer end()
	return s.SimilarityService.(vos.StateExporter).ExportSketch(ctx)
}

// node is one engine behind package server on a loopback listener.
type node struct {
	eng *engine.Engine
	srv *http.Server
	url string
}

func startNode(eng *engine.Engine, tr *tracer) (*node, error) {
	svc := vos.NewEngineService(eng)
	var handler http.Handler = server.New(svc, server.Options{})
	if tr != nil {
		handler = tracedHandler{server.New(tracedService{svc, tr}, server.Options{}), tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{eng: eng, srv: &http.Server{Handler: handler}, url: "http://" + ln.Addr().String()}
	go n.srv.Serve(ln) // returns ErrServerClosed from stop
	return n, nil
}

func (n *node) stop() error {
	err := n.srv.Close()
	if cerr := n.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// clientOptions are the options of every HTTP client a stack owns: no
// linger ticker and no retries, so one call is one request and a failure
// is a failure.
func clientOptions(batch int, tr *tracer) client.Options {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: conns(), MaxIdleConnsPerHost: conns()}
	if tr != nil {
		rt = tracedTransport{rt, tr}
	}
	return client.Options{
		BatchSize:  batch,
		Linger:     -1,
		MaxRetries: -1,
		HTTPClient: &http.Client{Transport: rt, Timeout: 30 * time.Second},
	}
}

// --- http: a durable engine behind server, driven by client ---

// walSync is the WAL policy of the http stack, stated in every result.
// Every batch is appended to the log before it is acknowledged and none is
// fsynced: an acknowledged batch survives the process, not the machine.
// Under the engine's default, an fsync before every acknowledgement, a
// batch of 1024 edges is 0.25 ms of work and one fsync of the shared
// virtual disk, which took 0.21 to 0.62 ms from one second to the next
// when probed (README, "The log is not fsynced"): ingest_edges_per_s and
// every fresh read would be the disk's figure, and no statistic over a run
// steadies that. What an fsync costs is the per-layer metric
// wal.fsync_ms_p50 and no end-to-end metric.
const walSync = wal.SyncOff

type httpStack struct {
	node  *node
	cl    *client.Client
	cands []stream.User
	tr    *tracer
}

// durableConfig is the engine configuration of the http stack.
func durableConfig(w workloadSpec) vos.EngineConfig {
	cfg := engineConfig(w)
	cfg.Durability = &vos.DurabilityConfig{Sync: walSync}
	return cfg
}

func newHTTPStack(w workloadSpec, cands []stream.User, dir string, tr *tracer) (*httpStack, error) {
	eng, err := vos.OpenEngine(dir, durableConfig(w))
	if err != nil {
		return nil, err
	}
	n, err := startNode(eng, tr)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &httpStack{node: n, cl: client.New(n.url, clientOptions(w.wireBatch, tr)), cands: cands, tr: tr}, nil
}

func (s *httpStack) ingest(ctx context.Context, edges []stream.Edge) error {
	ctx, end := s.tr.start(ctx, "client.ingest")
	defer end()
	return s.cl.Ingest(ctx, edges)
}

func (s *httpStack) sync(ctx context.Context) error {
	ctx, end := s.tr.start(ctx, "client.flush")
	defer end()
	return s.cl.Flush(ctx)
}

func (s *httpStack) rotate(context.Context) error { return nil }

func (s *httpStack) similarity(ctx context.Context, u, v stream.User) (core.Estimate, error) {
	ctx, end := s.tr.start(ctx, "client.similarity")
	defer end()
	return s.cl.Similarity(ctx, u, v)
}

func (s *httpStack) topK(ctx context.Context, u stream.User) ([]core.TopKResult, error) {
	ctx, end := s.tr.start(ctx, "client.topk")
	defer end()
	return s.cl.TopK(ctx, u, s.cands, topN)
}

func (s *httpStack) cardinality(ctx context.Context, u stream.User) (int64, error) {
	return s.cl.Cardinality(ctx, u)
}

func (s *httpStack) export(ctx context.Context) ([]byte, error) { return s.cl.ExportSketch(ctx) }
func (s *httpStack) check() error                               { return nil }
func (s *httpStack) engines() []*engine.Engine                  { return []*engine.Engine{s.node.eng} }

func (s *httpStack) close() error {
	err := s.cl.Close()
	if nerr := s.node.stop(); err == nil {
		err = nerr
	}
	return err
}

// --- udp: datagram ingest into a windowed engine with the ANN index ---

type udpStack struct {
	eng *engine.Engine
	*udpPlane
	clock atomic.Int64 // the stream clock, unix nanoseconds
	step  time.Duration
	tr    *tracer
}

// udpPlane is the datagram plane on loopback: the real client, the real
// receiver behind the shared admission controller, and a sink.
type udpPlane struct {
	recv *netproto.Receiver
	done chan error
	uc   *client.UDPClient
}

// The datagram plane accounts for loss, it does not prevent it, and a
// benchmark run must not lose a frame. With the client's default of an ack
// every 16 frames and 4 acks outstanding, 64 frames of 256 edges can sit
// unread in the receiver's socket, which overflows the kernel's default
// 208 KiB buffer (167 gaps in 82749 frames when tried). An ack every 8
// frames bounds the unread backlog to 32 frames, about 150 KiB.
const (
	udpAckEvery   = 8
	udpReadBuffer = 4 << 20
)

func newUDPPlane(frameEdges int, sink func([]stream.Edge) error) (*udpPlane, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// Best effort: the kernel caps the request at net.core.rmem_max. What
	// keeps the socket from overflowing where the cap is low is the ack
	// window.
	pc.(*net.UDPConn).SetReadBuffer(udpReadBuffer)
	p := &udpPlane{done: make(chan error, 1)}
	p.recv = netproto.NewReceiver(pc, netproto.Config{Admit: admit.NewController(0, 0), Sink: sink})
	go func() { p.done <- p.recv.Run() }()
	p.uc, err = client.NewUDP(p.recv.Addr().String(), client.UDPOptions{BatchSize: frameEdges, AckEvery: udpAckEvery})
	if err != nil {
		p.recv.Close()
		<-p.done
		return nil, err
	}
	return p, nil
}

// close flushes the client, stops the receiver and waits for its loop.
func (p *udpPlane) close() error {
	err := p.uc.Close()
	if rerr := p.recv.Close(); err == nil {
		err = rerr
	}
	if rerr := <-p.done; err == nil {
		err = rerr
	}
	return err
}

func newUDPStack(w workloadSpec, tr *tracer) (*udpStack, error) {
	s := &udpStack{step: w.bucket, tr: tr}
	// The stream clock starts on a bucket boundary and only rotate moves it.
	s.clock.Store(time.Unix(1_700_000_000, 0).Truncate(w.bucket).UnixNano())
	cfg := engineConfig(w)
	cfg.Window = &engine.WindowConfig{
		Buckets:        w.stream.epochs,
		BucketDuration: w.bucket,
		Now:            func() time.Time { return time.Unix(0, s.clock.Load()) },
	}
	cfg.ANN = w.ann
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.udpPlane, err = newUDPPlane(w.wireBatch, func(edges []stream.Edge) error {
		defer tr.startAsync("receiver.sink")()
		return eng.ProcessBatch(edges)
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	return s, nil
}

func (s *udpStack) ingest(ctx context.Context, edges []stream.Edge) error {
	ctx, end := s.tr.start(ctx, "udpclient.ingest")
	defer end()
	return s.uc.Ingest(ctx, edges)
}

// sync waits for the receiver's ack over everything sent, then for the
// engine to apply what the receiver handed it.
func (s *udpStack) sync(ctx context.Context) error {
	fctx, end := s.tr.start(ctx, "udpclient.flush")
	err := s.uc.Flush(fctx)
	end()
	if err != nil {
		return err
	}
	_, end = s.tr.start(ctx, "engine.flush")
	s.eng.Flush()
	end()
	return nil
}

// rotate applies everything in flight to the bucket it was sent in, then
// moves the clock to the next boundary and retires the oldest bucket.
func (s *udpStack) rotate(ctx context.Context) error {
	if err := s.sync(ctx); err != nil {
		return err
	}
	_, end := s.tr.start(ctx, "engine.rotate")
	defer end()
	now := time.Unix(0, s.clock.Add(int64(s.step)))
	if n := s.eng.AdvanceWindowTo(now); n != 1 {
		return fmt.Errorf("benchmark: window rotated %d buckets, want 1", n)
	}
	return nil
}

func (s *udpStack) similarity(ctx context.Context, u, v stream.User) (core.Estimate, error) {
	_, end := s.tr.start(ctx, "engine.query")
	defer end()
	return s.eng.QueryContext(ctx, u, v)
}

func (s *udpStack) topK(ctx context.Context, u stream.User) ([]core.TopKResult, error) {
	_, end := s.tr.start(ctx, "engine.topk_approx")
	defer end()
	return s.eng.TopKApproxContext(ctx, u, topN)
}

func (s *udpStack) cardinality(ctx context.Context, u stream.User) (int64, error) {
	return s.eng.CardinalityContext(ctx, u)
}

func (s *udpStack) export(context.Context) ([]byte, error) { return s.eng.MarshalBinary() }
func (s *udpStack) engines() []*engine.Engine              { return []*engine.Engine{s.eng} }

// check demands a spotless datagram ledger on both ends of the socket.
func (s *udpStack) check() error {
	cst, rst := s.uc.Stats(), s.recv.Stats()
	switch {
	case cst.AcksAbandoned != 0 || cst.LastAck.Gaps != 0 || cst.LastAck.Replays != 0:
		return fmt.Errorf("udp sender ledger not clean: %+v", cst)
	case rst.GapsDetected != 0 || rst.ReplaysDropped != 0 || rst.LateApplied != 0 || rst.StaleDropped != 0 ||
		rst.Malformed != 0 || rst.AdmitRejected != 0 || rst.SinkErrors != 0:
		return fmt.Errorf("udp receiver ledger not clean: %+v", rst)
	case rst.EdgesApplied != cst.EdgesSent:
		return fmt.Errorf("udp receiver applied %d edges, sender sent %d", rst.EdgesApplied, cst.EdgesSent)
	}
	return nil
}

func (s *udpStack) close() error {
	err := s.udpPlane.close()
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- cluster: the gateway over one-shard backends ---

type clusterStack struct {
	nodes []*node
	gw    *cluster.Gateway
	cands []stream.User
	tr    *tracer
}

// clusterRouteSeed seeds the gateway's user-to-backend routing.
const clusterRouteSeed = 7

func newClusterStack(w workloadSpec, cands []stream.User, tr *tracer) (*clusterStack, error) {
	s := &clusterStack{cands: cands, tr: tr}
	urls := make([]string, clusterBackends)
	for i := range urls {
		eng, err := vos.NewEngine(engineConfig(w))
		if err != nil {
			s.close()
			return nil, err
		}
		n, err := startNode(eng, tr)
		if err != nil {
			eng.Close()
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		urls[i] = n.url
	}
	gw, err := cluster.New(&cluster.Ring{Version: 1, RouteSeed: clusterRouteSeed, Shards: urls},
		cluster.Options{Client: clientOptions(w.wireBatch, tr)})
	if err != nil {
		s.close()
		return nil, err
	}
	s.gw = gw
	return s, nil
}

func (s *clusterStack) ingest(ctx context.Context, edges []stream.Edge) error {
	ctx, end := s.tr.start(ctx, "gateway.ingest")
	defer end()
	return s.gw.Ingest(ctx, edges)
}

// sync is empty: Gateway.Ingest returns only after every owning backend
// has acknowledged, and a backend's reads flush its engine first.
func (s *clusterStack) sync(context.Context) error   { return nil }
func (s *clusterStack) rotate(context.Context) error { return nil }

func (s *clusterStack) similarity(ctx context.Context, u, v stream.User) (core.Estimate, error) {
	ctx, end := s.tr.start(ctx, "gateway.similarity")
	defer end()
	return s.gw.Similarity(ctx, u, v)
}

func (s *clusterStack) topK(ctx context.Context, u stream.User) ([]core.TopKResult, error) {
	ctx, end := s.tr.start(ctx, "gateway.topk")
	defer end()
	return s.gw.TopK(ctx, u, s.cands, topN)
}

func (s *clusterStack) cardinality(ctx context.Context, u stream.User) (int64, error) {
	return s.gw.Cardinality(ctx, u)
}

func (s *clusterStack) export(ctx context.Context) ([]byte, error) { return s.gw.ExportSketch(ctx) }
func (s *clusterStack) check() error                               { return nil }

func (s *clusterStack) engines() []*engine.Engine {
	out := make([]*engine.Engine, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.eng
	}
	return out
}

func (s *clusterStack) close() error {
	var err error
	if s.gw != nil {
		err = s.gw.Close()
	}
	for _, n := range s.nodes {
		err = errors.Join(err, n.stop())
	}
	return err
}

// scratchDir makes a fresh directory under the run's work directory.
func scratchDir(work, pattern string) (string, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(work, pattern)
}
