package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/admit"
	"github.com/vossketch/vos/internal/bitset"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/engine"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/lsh"
	"github.com/vossketch/vos/internal/netproto"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/internal/wal"
	"github.com/vossketch/vos/server"
)

// perLayer declares the per-layer metrics of a traced run. Each is taken by
// a probe that drives one module on its own, through its public functions,
// at the workload's sketch configuration and on the workload's own batches.
// A probe runs on the workloads whose stack contains its module (see
// probes); on the others its metrics read 0: the layer does no work there.
var perLayer = []metricDecl{
	{Name: "loadgen.busy_share", Unit: "ratio", Better: "lower", Moves: "gate: under 0.05, so that phase A measures the program and not the generator"},
	{Name: "stream.encode_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "ingest_edges_per_s on http-durable and cluster-gather"},
	{Name: "stream.decode_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "ingest_edges_per_s on http-durable and cluster-gather"},
	{Name: "hashing.fill_us", Unit: "us", Better: "lower", Moves: "sim_quiet_* on embed-churn and *_fresh_* wherever the position cache is off"},
	{Name: "bitset.gather_us", Unit: "us", Better: "lower", Moves: "sim_quiet_* on embed-churn, *_fresh_* everywhere"},
	{Name: "bitset.xor_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "sim_fresh_* and topk_fresh_* through the snapshot merge"},
	{Name: "poscache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "topk_* on http-durable; the cache is off on embed-churn and udp-window-ann"},
	{Name: "core.apply_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "ingest_edges_per_s on embed-churn"},
	{Name: "core.recover_cold_us", Unit: "us", Better: "lower", Moves: "topk_fresh_*, sim_quiet_* on embed-churn"},
	{Name: "core.score_warm_ns", Unit: "ns", Better: "lower", Moves: "topk_quiet_*"},
	{Name: "core.merge_ms", Unit: "ms", Better: "lower", Moves: "sim_fresh_* on embed-churn and cluster-gather"},
	{Name: "core.marshal_ms", Unit: "ms", Better: "lower", Moves: "sim_fresh_* on cluster-gather"},
	{Name: "core.unmarshal_ms", Unit: "ms", Better: "lower", Moves: "sim_fresh_* on cluster-gather"},
	{Name: "core.beta", Unit: "ratio", Better: "lower", Moves: "est_rmse (array fill at verify)"},
	{Name: "engine.ingest_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "ingest_edges_per_s everywhere"},
	{Name: "engine.flush_us_p50", Unit: "us", Better: "lower", Moves: "*_fresh_* everywhere"},
	{Name: "engine.snapshot_rebuild_ms", Unit: "ms", Better: "lower", Moves: "sim_fresh_* on every workload"},
	{Name: "engine.queue_backlog_max", Unit: "count", Better: "lower", Moves: "ingest_edges_per_s (producer ahead of the shard workers)"},
	{Name: "engine.shard_skew", Unit: "ratio", Better: "lower", Moves: "ingest_edges_per_s"},
	{Name: "engine.rotate_ms", Unit: "ms", Better: "lower", Moves: "ingest_edges_per_s on udp-window-ann"},
	{Name: "engine.checkpoint_ms", Unit: "ms", Better: "lower", Moves: "http-durable (phase D)"},
	{Name: "engine.recover_s", Unit: "s", Better: "lower", Moves: "http-durable (phase D)"},
	{Name: "engine.ann_rebands_per_probe", Unit: "count", Better: "lower", Moves: "topk_fresh_* on udp-window-ann"},
	{Name: "engine.ann_probe_reuse_ratio", Unit: "ratio", Better: "higher", Moves: "topk_quiet_* on udp-window-ann"},
	{Name: "lsh.put_us", Unit: "us", Better: "lower", Moves: "topk_fresh_* on udp-window-ann"},
	{Name: "lsh.candidates_us", Unit: "us", Better: "lower", Moves: "topk_* on udp-window-ann"},
	{Name: "lsh.candidates_per_probe", Unit: "count", Better: "lower", Moves: "topk_* on udp-window-ann"},
	{Name: "lsh.recall_at_10", Unit: "ratio", Better: "higher", Moves: "gate on udp-window-ann: at least 0.95"},
	{Name: "wal.append_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "ingest_edges_per_s on http-durable"},
	{Name: "wal.fsync_ms_p50", Unit: "ms", Better: "lower", Moves: "no end-to-end metric: the timed phases do not fsync (see walSync)"},
	{Name: "wal.bytes_per_edge", Unit: "B/edge", Better: "lower", Moves: "ingest_edges_per_s and engine.recover_s on http-durable"},
	{Name: "wal.replay_edges_per_s", Unit: "edges/s", Better: "higher", Moves: "engine.recover_s on http-durable"},
	{Name: "admit.ns_per_batch", Unit: "ns", Better: "lower", Moves: "ingest_edges_per_s on http-durable, udp-window-ann, cluster-gather"},
	{Name: "admit.rejected", Unit: "count", Better: "lower", Moves: "gate: 0"},
	{Name: "server.ingest_handler_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "ingest_edges_per_s on http-durable and cluster-gather"},
	{Name: "server.sim_handler_us", Unit: "us", Better: "lower", Moves: "sim_quiet_* on http-durable"},
	{Name: "server.svc_share_ingest", Unit: "ratio", Better: "higher", Moves: "share of a client-observed ingest call spent in the engine service"},
	{Name: "client.http_rtt_us_p50", Unit: "us", Better: "lower", Moves: "the wire floor under every http-durable and cluster-gather number"},
	{Name: "client.ingest_call_us_p50", Unit: "us", Better: "lower", Moves: "ingest_edges_per_s on http-durable"},
	{Name: "netproto.encode_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "ingest_edges_per_s on udp-window-ann"},
	{Name: "netproto.decode_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "ingest_edges_per_s on udp-window-ann"},
	{Name: "netproto.track_ns_per_frame", Unit: "ns", Better: "lower", Moves: "ingest_edges_per_s on udp-window-ann"},
	{Name: "netproto.ack_rtt_us_p50", Unit: "us", Better: "lower", Moves: "*_fresh_* on udp-window-ann (the write's acknowledgement)"},
	{Name: "netproto.gaps", Unit: "count", Better: "lower", Moves: "gate: 0"},
	{Name: "netproto.replays", Unit: "count", Better: "lower", Moves: "gate: 0"},
	{Name: "cluster.ingest_fanout_us_p50", Unit: "us", Better: "lower", Moves: "ingest_edges_per_s on cluster-gather"},
	{Name: "cluster.backend_ingest_share", Unit: "ratio", Better: "higher", Moves: "share of a gateway ingest call spent inside the backends' services"},
	{Name: "cluster.gather_ms", Unit: "ms", Better: "lower", Moves: "*_fresh_* on cluster-gather"},
	{Name: "cluster.export_ms", Unit: "ms", Better: "lower", Moves: "*_fresh_* on cluster-gather"},
	{Name: "cluster.gather_bytes", Unit: "B", Better: "lower", Moves: "*_fresh_* on cluster-gather"},
	{Name: "cluster.merge_remainder_ms", Unit: "ms", Better: "lower", Moves: "*_fresh_* on cluster-gather"},
	{Name: "cluster.route_skew", Unit: "ratio", Better: "lower", Moves: "ingest_edges_per_s on cluster-gather"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher", Moves: "traced over untraced ingest_edges_per_s in the same run"},
}

// probes lists the module probes and the stacks each belongs to: a probe
// runs where the workload's stack contains its module.
var probes = []struct {
	run func(*probeEnv) error
	on  []string
}{
	{probeHashingBitset, []string{stackEmbed, stackHTTP, stackUDP, stackCluster}},
	{probeCore, []string{stackEmbed, stackHTTP, stackUDP, stackCluster}},
	{probeEngine, []string{stackEmbed, stackHTTP, stackUDP, stackCluster}},
	{probeStream, []string{stackHTTP, stackCluster}},
	{probeServer, []string{stackHTTP, stackCluster}},
	{probeHTTP, []string{stackHTTP, stackCluster}},
	{probeAdmit, []string{stackHTTP, stackUDP, stackCluster}},
	{probeDurable, []string{stackHTTP}},
	{probeWAL, []string{stackHTTP}},
	{probeLSH, []string{stackUDP}},
	{probeWindow, []string{stackUDP}},
	{probeANN, []string{stackUDP}},
	{probeNetproto, []string{stackUDP}},
	{probeUDP, []string{stackUDP}},
	{probeCluster, []string{stackCluster}},
}

// Probe sizes.
const (
	// probeBatches is how many of the workload's ingest batches a probe
	// replays; probeReads how many reads or small writes it times.
	probeBatches = 64
	probeReads   = 64
	// probeUsers bounds the population of the lsh probe.
	probeUsers      = 4096
	annProbeBatches = 8
)

// tracedRoundShare is the share of an untraced run's rounds a traced run
// makes; each comes with an ingest slice taken with the tracer off, and
// what is left of the time is for the probes.
const tracedRoundShare = 0.5

// runTraced is the traced run: the rounds of an untraced run with spans
// around every call the benchmark makes into a layer, then the probes.
// End-to-end numbers never come from here.
func (r *runner) runTraced(ctx context.Context, work string) error {
	r.tr.on.Store(false)
	t0 := time.Now()
	if err := r.setup(ctx); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	fx := r.fx
	r.res.PhaseSeconds["setup"] = time.Since(t0).Seconds()

	// Every round is preceded by an ingest slice with the tracer off: the
	// base of trace.overhead_ratio, taken under the same weather.
	var baseRates, tracedRates []float64
	var loadgenNS, ingestNS int64
	var backlogMax int
	var skewMax float64
	sampleShards := func() {
		for _, eng := range fx.st.engines() {
			var lo, hi uint64
			for i, ss := range eng.ShardStats() {
				backlogMax = max(backlogMax, ss.QueueBatches)
				if i == 0 || ss.Enqueued < lo {
					lo = ss.Enqueued
				}
				hi = max(hi, ss.Enqueued)
			}
			if lo > 0 {
				skewMax = max(skewMax, float64(hi)/float64(lo))
			}
		}
	}
	rounds := max(minRounds, int(float64(r.rounds)*tracedRoundShare))
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if i >= minRounds && time.Since(start) > r.roundsCap {
			r.res.Info["stopped_after_s"] = time.Since(start).Seconds()
			rounds = i
			break
		}
		settle()
		var base roundSamples
		if err := r.ingestSlice(ctx, &base, nil); err != nil {
			return fmt.Errorf("phase A untraced: %w", err)
		}
		baseRates = append(baseRates, base.ingestRate())
		r.tr.on.Store(true)
		rs, err := r.round(ctx, sampleShards)
		r.tr.on.Store(false)
		if err != nil {
			return err
		}
		tracedRates = append(tracedRates, rs.ingestRate())
		loadgenNS += rs.loadgenNS
		ingestNS += rs.ingestWall.Nanoseconds()
	}
	units := rounds * r.w.unitsPerRound
	r.set("trace.overhead_ratio", median(tracedRates)/median(baseRates), rounds)
	r.set("loadgen.busy_share", float64(loadgenNS)/float64(ingestNS), units)
	r.set("engine.queue_backlog_max", float64(backlogMax), units)
	r.set("engine.shard_skew", skewMax, units)
	r.res.Info["rounds"] = rounds
	r.res.Layers = map[string][]layerRow{}
	for _, phase := range []string{"A_ingest", "B_quiet", "C_fresh"} {
		r.res.Layers[phase] = layerTable(r.tr.inPhase(phase))
	}

	settle()
	t0 = time.Now()
	if _, err := r.verify(ctx); err != nil {
		return fmt.Errorf("phase D: %w", err)
	}
	r.res.PhaseSeconds["D_verify"] = time.Since(t0).Seconds()
	r.describe()

	var hits, lookups uint64
	for _, eng := range fx.st.engines() {
		if st, ok := eng.PositionCacheStats(); ok {
			hits += st.Hits
			lookups += st.Hits + st.Misses
		}
	}
	r.set("poscache.hit_ratio", float64(hits)/float64(max(lookups, 1)), int(lookups))

	state, err := fx.st.export(ctx)
	if err != nil {
		return err
	}
	env := &probeEnv{r: r, w: r.w, state: state, dir: r.work}
	for off := 0; off < len(fx.data.cycle) && len(env.batches) < probeBatches; off += r.w.ingestBatch {
		env.batches = append(env.batches, fx.data.cycle[off:min(off+r.w.ingestBatch, len(fx.data.cycle), fx.data.nextParity(off+1))])
	}
	for _, b := range env.batches {
		env.edges += len(b)
	}
	env.write = fx.data.cycle[:freshWriteEdges]
	env.users = fx.pop[:min(len(fx.pop), probeUsers)]
	env.planted = min(len(env.users), len(fx.data.plantedUsers))
	if err := r.teardown(); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	settle()
	t0 = time.Now()
	for _, probe := range probes {
		if !slices.Contains(probe.on, r.w.stack) {
			continue
		}
		if err := probe.run(env); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		settle()
	}
	r.res.PhaseSeconds["probes"] = time.Since(t0).Seconds()
	// What no probe of this stack measured belongs to a layer the workload
	// does not have.
	for _, m := range perLayer {
		if _, ok := r.res.Metrics[m.Name]; !ok {
			r.set(m.Name, 0, 0)
		}
	}

	if err := r.gate(r.res.Metrics["admit.rejected"].Value == 0 && r.res.Metrics["netproto.gaps"].Value == 0 &&
		r.res.Metrics["netproto.replays"].Value == 0, "a probe shed or lost a batch"); err != nil {
		return err
	}
	if r.w.timingGates {
		v := r.res.Metrics["loadgen.busy_share"].Value
		if err := r.gate(v < 0.05, "the load generator took %.3f of phase A", v); err != nil {
			return err
		}
	}

	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	return writeTrace(filepath.Join(work, "trace-"+r.w.name+".json"),
		traceFile{Workload: r.w.name, Phases: r.res.Layers, Spans: r.tr.all()})
}

// probeEnv is what every probe works from.
type probeEnv struct {
	r *runner
	w workloadSpec
	// state is the stack's serialized preload state; batches the first
	// probeBatches ingest batches of the churn cycle (edges in all); write
	// one phase-C write; users a slice of the read-key population.
	state   []byte
	batches [][]stream.Edge
	edges   int
	write   []stream.Edge
	users   []stream.User
	// planted is how many of users, from the front, are planted.
	planted int
	dir     string
}

func (e *probeEnv) set(name string, v float64, samples int) { e.r.set(name, v, samples) }

// perEdge times fn over the probe's batches and returns nanoseconds per
// edge.
func (e *probeEnv) perEdge(fn func(batch []stream.Edge)) float64 {
	t0 := time.Now()
	for _, b := range e.batches {
		fn(b)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(e.edges)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func probeStream(e *probeEnv) error {
	var encoded [][]byte
	var err error
	e.set("stream.encode_ns_per_edge", e.perEdge(func(b []stream.Edge) {
		var buf bytes.Buffer
		if werr := stream.WriteBinary(&buf, b); werr != nil {
			err = werr
		}
		encoded = append(encoded, buf.Bytes())
	}), e.edges)
	if err != nil {
		return err
	}
	i := 0
	e.set("stream.decode_ns_per_edge", e.perEdge(func([]stream.Edge) {
		if _, rerr := stream.ReadBinary(bytes.NewReader(encoded[i])); rerr != nil {
			err = rerr
		}
		i++
	}), e.edges)
	return err
}

func probeHashingBitset(e *probeEnv) error {
	k, m := e.w.sketch.SketchBits, e.w.sketch.MemoryBits
	pos := make([]uint64, k)
	fill := func(u uint64) {}
	if e.w.sketch.Family == hashing.KindFast {
		f := hashing.NewFastFamily(k, e.w.sketch.Seed)
		fill = func(u uint64) { f.HashRangeInto(pos, u, m) }
	} else {
		f := hashing.NewFamily(k, e.w.sketch.Seed)
		fill = func(u uint64) { f.HashRangeInto(pos, u, m) }
	}
	i := 0
	e.set("hashing.fill_us", us(timeMedian(probeReads, func() { fill(uint64(e.users[i%len(e.users)])); i++ })), probeReads)

	// Two arrays of the workload's m at its load, as a snapshot merge sees.
	sk, err := core.UnmarshalVOS(e.state)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	a, b := bitset.New(m), bitset.New(m)
	for n := uint64(sk.Beta() * float64(m)); n > 0; n-- {
		a.Flip(rng.Uint64() % m)
		b.Flip(rng.Uint64() % m)
	}
	e.set("bitset.gather_us", us(timeMedian(probeReads, func() { fill(uint64(e.users[i%len(e.users)])); i++; a.Gather(pos) }))-
		e.r.res.Metrics["hashing.fill_us"].Value, probeReads)
	xor := timeMedian(9, func() { a.Xor(b) })
	e.set("bitset.xor_mb_per_s", float64(m/8)/1e6/xor.Seconds(), 9)
	return nil
}

func probeCore(e *probeEnv) error {
	sk, err := core.UnmarshalVOS(e.state)
	if err != nil {
		return err
	}
	e.set("core.beta", sk.Beta(), 0)
	e.set("core.marshal_ms", ms(timeMedian(5, func() { _, err = sk.MarshalBinary() })), 5)
	e.set("core.unmarshal_ms", ms(timeMedian(5, func() { _, err = core.UnmarshalVOS(e.state) })), 5)
	e.set("core.merge_ms", ms(timeMedian(5, func() { err = core.MustNew(e.w.sketch).Merge(sk) })), 5)
	if err != nil {
		return err
	}
	// Cold: no position cache is attached and every user is new to the
	// recovered-sketch cache. The users are ids no stream holds (a workload
	// may have fewer read keys than the probe has reads); recovering one
	// hashes and gathers k positions like any other.
	i := 0
	e.set("core.recover_cold_us", us(timeMedian(probeReads, func() { sk.RecoverSketch(stream.User(1<<40 + i)); i++ })), probeReads)
	// Warm: both sketches of a pair are in the recovered-sketch cache.
	probe := sk.RecoverSketch(e.users[0])
	warm := e.users[:min(probeReads, len(e.users))]
	t0 := time.Now()
	const rounds = 16
	for round := 0; round < rounds; round++ {
		for _, u := range warm {
			sk.QueryRecovered(probe, u)
		}
	}
	e.set("core.score_warm_ns", float64(time.Since(t0).Nanoseconds())/float64(rounds*len(warm)), rounds*len(warm))
	e.set("core.apply_ns_per_edge", e.perEdge(sk.ProcessBatch), e.edges)
	return nil
}

// probeLSH drives a BandIndex directly on the recovered sketches of the
// read-key population and compares it with the exact scan over the same
// population.
func probeLSH(e *probeEnv) error {
	sk, err := core.UnmarshalVOS(e.state)
	if err != nil {
		return err
	}
	ix, err := lsh.NewBandIndex(lsh.Params{Bands: e.w.ann.Bands, Rows: e.w.ann.Rows, Seed: sketchSeed}, e.w.sketch.SketchBits)
	if err != nil {
		return err
	}
	sk.SetRecoveredCacheCapacity(len(e.users) + 1)
	var puts []float64
	for _, u := range e.users {
		if sk.Cardinality(u) == 0 {
			continue
		}
		words := sk.RecoverSketch(u).Words()
		t0 := time.Now()
		if err := ix.Put(u, words); err != nil {
			return err
		}
		puts = append(puts, us(time.Since(t0)))
	}
	e.set("lsh.put_us", median(puts), len(puts))
	var lookups []float64
	var cands, recall float64
	// The probes are planted users, whose ten nearest are their cluster
	// mates; a light user's ten nearest are ten users it shares nothing
	// with, in an order the array's noise decides.
	probes := e.users[:min(probeReads, e.planted)]
	for _, u := range probes {
		rec := sk.RecoverSketch(u)
		t0 := time.Now()
		got, err := ix.Candidates(u, rec.Words())
		if err != nil {
			return err
		}
		lookups = append(lookups, us(time.Since(t0)))
		cands += float64(len(got))
		in := map[stream.User]bool{}
		for _, res := range sk.TopKRecovered(rec, got, topN) {
			in[res.User] = true
		}
		exact := sk.TopK(u, e.users, topN)
		hits := 0
		for _, res := range exact {
			if in[res.User] {
				hits++
			}
		}
		recall += float64(hits) / float64(max(len(exact), 1))
	}
	e.set("lsh.candidates_us", median(lookups), len(lookups))
	e.set("lsh.candidates_per_probe", cands/float64(len(probes)), len(probes))
	e.set("lsh.recall_at_10", recall/float64(len(probes)), len(probes))
	return nil
}

// probeEngine drives a memory-only engine of the workload's shape holding
// the preload state (imported, so it sits in the engine's base sketch).
func probeEngine(e *probeEnv) error {
	eng, err := engine.New(engineConfig(e.w))
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := eng.ImportSketch(e.state); err != nil {
		return err
	}
	e.set("engine.ingest_ns_per_edge", e.perEdge(func(b []stream.Edge) {
		if perr := eng.ProcessBatch(b); perr != nil {
			err = perr
		}
	})+flushNS(eng)/float64(e.edges), e.edges)
	if err != nil {
		return err
	}
	var flushes, rebuilds []float64
	u, v := e.users[0], e.users[1]
	for i := 0; i < probeReads/4; i++ {
		if err := eng.ProcessBatch(e.write); err != nil {
			return err
		}
		flushes = append(flushes, flushNS(eng)/1e3)
		t0 := time.Now()
		eng.Query(u, v) // rebuilds the snapshot
		first := time.Since(t0)
		t0 = time.Now()
		eng.Query(u, v) // served from it
		rebuilds = append(rebuilds, ms(first-time.Since(t0)))
	}
	e.set("engine.flush_us_p50", median(flushes), len(flushes))
	e.set("engine.snapshot_rebuild_ms", median(rebuilds), len(rebuilds))
	return nil
}

func flushNS(eng *engine.Engine) float64 {
	t0 := time.Now()
	eng.Flush()
	return float64(time.Since(t0).Nanoseconds())
}

// probeWindow times a bucket rotation of a windowed engine of the
// workload's shape with a few batches in every bucket.
func probeWindow(e *probeEnv) error {
	now := time.Unix(1_700_000_000, 0).Truncate(e.w.bucket)
	buckets := e.w.stream.epochs
	cfg := engineConfig(e.w)
	cfg.Window = &engine.WindowConfig{Buckets: buckets, BucketDuration: e.w.bucket, Now: func() time.Time { return now }}
	eng, err := engine.New(cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	var rotations []float64
	for i := 0; i < 2*buckets; i++ {
		for _, b := range e.batches[:min(8, len(e.batches))] {
			if err := eng.ProcessBatch(b); err != nil {
				return err
			}
		}
		eng.Flush()
		now = now.Add(e.w.bucket)
		t0 := time.Now()
		eng.AdvanceWindowTo(now)
		if i >= buckets { // once the ring is full a rotation retires edges
			rotations = append(rotations, ms(time.Since(t0)))
		}
	}
	e.set("engine.rotate_ms", median(rotations), len(rotations))
	return nil
}

// probeANN drives an engine with the approximate index over the first
// annProbeBatches of the probe's batches (the index holds every user they
// name, and building it is the probe's main cost): repeated probes of one
// user between writes, as a poll loop does.
func probeANN(e *probeEnv) error {
	cfg := engineConfig(e.w)
	cfg.ANN = e.w.ann
	eng, err := engine.New(cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	for _, b := range e.batches[:min(annProbeBatches, len(e.batches))] {
		if err := eng.ProcessBatch(b); err != nil {
			return err
		}
	}
	eng.Flush()
	u := e.batches[0][0].User
	if _, err := eng.TopKApprox(u, topN); err != nil { // the initial build
		return err
	}
	before, _ := eng.ANNStats()
	for i := 0; i < probeReads/8; i++ {
		if err := eng.ProcessBatch(e.write); err != nil {
			return err
		}
		eng.Flush()
		for j := 0; j < 4; j++ {
			if _, err := eng.TopKApprox(u, topN); err != nil {
				return err
			}
		}
	}
	after, _ := eng.ANNStats()
	probes := float64(after.Probes - before.Probes)
	e.set("engine.ann_rebands_per_probe", float64(after.Rebands-before.Rebands)/probes, int(probes))
	e.set("engine.ann_probe_reuse_ratio", float64(after.ProbeReuses-before.ProbeReuses)/probes, int(probes))
	return nil
}

// probeDurable times a checkpoint and a crash recovery of a durable engine
// of the workload's shape: the preload state under a checkpoint and the
// probe's batches as the WAL suffix after it.
func probeDurable(e *probeEnv) error {
	dir, err := scratchDir(e.dir, "durable-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	eng, err := vos.OpenEngine(dir, durableConfig(e.w))
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := eng.ImportSketch(e.state); err != nil {
		return err
	}
	half := len(e.batches) / 2
	for _, b := range e.batches[:half] {
		if err := eng.ProcessBatch(b); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if _, err := eng.Checkpoint(); err != nil {
		return err
	}
	e.set("engine.checkpoint_ms", ms(time.Since(t0)), 0)
	for _, b := range e.batches[half:] {
		if err := eng.ProcessBatch(b); err != nil {
			return err
		}
	}
	eng.Flush()
	image, err := scratchDir(e.dir, "image-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(image)
	if err := copyFiles(dir, image); err != nil {
		return err
	}
	t0 = time.Now()
	re, err := vos.OpenEngine(image, durableConfig(e.w))
	if err != nil {
		return err
	}
	re.Query(e.users[0], e.users[1]) // the first answer
	e.set("engine.recover_s", time.Since(t0).Seconds(), 0)
	return re.Close()
}

func probeWAL(e *probeEnv) error {
	dir, err := scratchDir(e.dir, "wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		return err
	}
	e.set("wal.append_ns_per_edge", e.perEdge(func(b []stream.Edge) {
		if aerr := log.Append(b); aerr != nil {
			err = aerr
		}
	}), e.edges)
	if err != nil {
		log.Close()
		return err
	}
	var syncs []float64
	for i := 0; i < probeReads/2; i++ {
		if err := log.Append(e.batches[i%len(e.batches)]); err != nil {
			log.Close()
			return err
		}
		t0 := time.Now()
		if err := log.Sync(); err != nil {
			log.Close()
			return err
		}
		syncs = append(syncs, ms(time.Since(t0)))
	}
	e.set("wal.fsync_ms_p50", median(syncs), len(syncs))
	written := log.Pos()
	if err := log.Close(); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var size int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			size += info.Size()
		}
	}
	e.set("wal.bytes_per_edge", float64(size)/float64(written), int(written))
	var replayed int
	t0 := time.Now()
	if err := wal.ReplayDir(dir, 0, func(_ uint64, edges []stream.Edge) error {
		replayed += len(edges)
		return nil
	}); err != nil {
		return err
	}
	e.set("wal.replay_edges_per_s", float64(replayed)/time.Since(t0).Seconds(), replayed)
	return nil
}

func probeAdmit(e *probeEnv) error {
	ctl := admit.NewController(0, 0)
	wire := int64(len(e.batches[0]) * 8)
	rejected := 0
	const rounds = 4096
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		hold, err := ctl.Admit(wire, true)
		if err != nil {
			rejected++
			continue
		}
		hold.Trim(len(e.batches[0]))
		hold.Close()
	}
	e.set("admit.ns_per_batch", float64(time.Since(t0).Nanoseconds())/rounds, rounds)
	e.set("admit.rejected", float64(rejected), rounds)
	return nil
}

// nullService answers at once: what is left of a request is package
// server's own work.
type nullService struct{}

func (nullService) Ingest(context.Context, []vos.Edge) error { return nil }
func (nullService) Similarity(context.Context, vos.User, vos.User) (vos.Estimate, error) {
	return vos.Estimate{}, nil
}
func (nullService) TopK(context.Context, vos.User, []vos.User, int) ([]vos.TopKResult, error) {
	return nil, nil
}
func (nullService) Cardinality(context.Context, vos.User) (int64, error) { return 0, nil }
func (nullService) Stats(context.Context) (vos.Stats, error)             { return vos.Stats{}, nil }

func probeServer(e *probeEnv) error {
	srv := server.New(nullService{}, server.Options{})
	var bodies [][]byte
	for _, b := range e.batches {
		var buf bytes.Buffer
		if err := stream.WriteBinary(&buf, b); err != nil {
			return err
		}
		bodies = append(bodies, buf.Bytes())
	}
	i, failed := 0, 0
	serve := func(req *http.Request) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			failed++
		}
	}
	e.set("server.ingest_handler_ns_per_edge", e.perEdge(func([]stream.Edge) {
		req := httptest.NewRequest(http.MethodPost, server.RouteEdges, bytes.NewReader(bodies[i]))
		req.Header.Set("Content-Type", server.ContentTypeBinary)
		serve(req)
		i++
	}), e.edges)
	e.set("server.sim_handler_us", us(timeMedian(probeReads, func() {
		serve(httptest.NewRequest(http.MethodGet, server.RouteSimilarity+"?u=1&v=2", nil))
	})), probeReads)
	if failed != 0 {
		return fmt.Errorf("%d handler calls did not answer 200", failed)
	}
	return nil
}

// probeHTTP puts the engine probe's engine behind package server on
// loopback and drives it with package client, traced by a tracer of its
// own, for the wire floor and the engine service's share of a call.
func probeHTTP(e *probeEnv) error {
	eng, err := engine.New(engineConfig(e.w))
	if err != nil {
		return err
	}
	tr := newTracer()
	tr.on.Store(true)
	n, err := startNode(eng, tr)
	if err != nil {
		eng.Close()
		return err
	}
	defer n.stop()
	cl := client.New(n.url, clientOptions(len(e.batches[0]), tr))
	defer cl.Close()
	ctx := context.Background()
	ok := true
	e.set("client.http_rtt_us_p50", us(timeMedian(probeReads, func() { ok = ok && cl.Ready(ctx) })), probeReads)
	if !ok {
		return fmt.Errorf("the probe server was not ready")
	}
	var calls []float64
	for _, b := range e.batches {
		sctx, end := tr.start(ctx, "client.ingest")
		t0 := time.Now()
		err := cl.Ingest(sctx, b)
		calls = append(calls, us(time.Since(t0)))
		end()
		if err != nil {
			return err
		}
	}
	e.set("client.ingest_call_us_p50", median(calls), len(calls))
	e.set("server.svc_share_ingest", rowShare(layerTable(tr.all()), "service.ingest", "client.ingest"), len(calls))
	return nil
}

// rowShare returns part's total time over whole's.
func rowShare(rows []layerRow, part, whole string) float64 {
	var p, w int64
	for _, r := range rows {
		switch r.Name {
		case part:
			p = r.TotalNS
		case whole:
			w = r.TotalNS
		}
	}
	return float64(p) / float64(max(w, 1))
}

func probeNetproto(e *probeEnv) error {
	var frames [][]byte
	var flat []stream.Edge
	for _, b := range e.batches {
		flat = append(flat, b...)
	}
	const session = 0x62656e6368
	var err error
	t0 := time.Now()
	for off, seq := 0, uint64(0); off < len(flat); off, seq = off+e.w.wireBatch, seq+1 {
		frame, ferr := netproto.AppendDataFrame(nil, session, seq, 0, flat[off:min(off+e.w.wireBatch, len(flat))])
		if ferr != nil {
			return ferr
		}
		frames = append(frames, frame)
	}
	e.set("netproto.encode_ns_per_edge", float64(time.Since(t0).Nanoseconds())/float64(len(flat)), len(flat))
	t0 = time.Now()
	for _, raw := range frames {
		f, derr := netproto.DecodeFrame(raw)
		if derr != nil {
			return derr
		}
		if _, err = f.DecodeEdges(); err != nil {
			return err
		}
	}
	e.set("netproto.decode_ns_per_edge", float64(time.Since(t0).Nanoseconds())/float64(len(flat)), len(flat))
	trk := netproto.NewTracker(0)
	const observed = 1 << 16
	t0 = time.Now()
	for seq := uint64(0); seq < observed; seq++ {
		trk.Observe(session, seq)
	}
	e.set("netproto.track_ns_per_frame", float64(time.Since(t0).Nanoseconds())/observed, observed)
	return nil
}

// probeUDP sends the probe's batches through the real datagram client and
// receiver on loopback into an engine of the workload's shape.
func probeUDP(e *probeEnv) error {
	eng, err := engine.New(engineConfig(e.w))
	if err != nil {
		return err
	}
	defer eng.Close()
	plane, err := newUDPPlane(e.w.wireBatch, eng.ProcessBatch)
	if err != nil {
		return err
	}
	defer plane.close()
	uc, recv := plane.uc, plane.recv
	ctx := context.Background()
	for _, b := range e.batches {
		if err := uc.Ingest(ctx, b); err != nil {
			return err
		}
	}
	if err := uc.Flush(ctx); err != nil {
		return err
	}
	var rtts []float64
	for _, d := range uc.TakeRTTs() {
		rtts = append(rtts, us(d))
	}
	st := recv.Stats()
	e.set("netproto.ack_rtt_us_p50", median(rtts), len(rtts))
	e.set("netproto.gaps", float64(st.GapsDetected), int(st.FramesReceived))
	e.set("netproto.replays", float64(st.ReplaysDropped), int(st.FramesReceived))
	return nil
}

// probeCluster puts a gateway over clusterBackends one-shard nodes of the
// workload's sketch configuration. Backend 0 holds the preload state, so a
// gather moves arrays at the workload's load.
func probeCluster(e *probeEnv) error {
	tr := newTracer()
	tr.on.Store(true)
	st, err := newClusterStack(e.w, e.users[:min(len(e.users), e.w.candidates)], tr)
	if err != nil {
		return err
	}
	defer st.close()
	if err := st.nodes[0].eng.ImportSketch(e.state); err != nil {
		return err
	}
	ctx := context.Background()
	var fanouts []float64
	for _, b := range e.batches {
		t0 := time.Now()
		if err := st.ingest(ctx, b); err != nil {
			return err
		}
		fanouts = append(fanouts, us(time.Since(t0)))
	}
	e.set("cluster.ingest_fanout_us_p50", median(fanouts), len(fanouts))
	e.set("cluster.backend_ingest_share", rowShare(layerTable(tr.all()), "service.ingest", "gateway.ingest"), len(fanouts))

	var lo, hi uint64
	var gathered int
	for i, n := range st.nodes {
		data, err := n.eng.MarshalBinary()
		if err != nil {
			return err
		}
		gathered += len(data)
		enq := n.eng.ShardStats()[0].Enqueued
		if i == 0 || enq < lo {
			lo = enq
		}
		hi = max(hi, enq)
	}
	e.set("cluster.gather_bytes", float64(gathered), len(st.nodes))
	e.set("cluster.route_skew", float64(hi)/float64(max(lo, 1)), len(st.nodes))

	tr.setPhase("gather")
	var gathers []float64
	u, v := e.users[0], e.users[1]
	const reads = 8
	for i := 0; i < reads; i++ {
		if err := st.ingest(ctx, e.write); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := st.similarity(ctx, u, v); err != nil { // gathers
			return err
		}
		cold := time.Since(t0)
		t0 = time.Now()
		if _, err := st.gw.Similarity(ctx, u, v); err != nil { // cached
			return err
		}
		gathers = append(gathers, ms(cold-time.Since(t0)))
	}
	e.set("cluster.gather_ms", median(gathers), reads)
	for _, row := range layerTable(tr.inPhase("gather")) {
		switch row.Name {
		case "service.export":
			e.set("cluster.export_ms", float64(row.TotalNS)/1e6/reads, reads)
		case "gateway.similarity":
			e.set("cluster.merge_remainder_ms", float64(row.SelfNS)/1e6/reads, reads)
		}
	}
	return nil
}
