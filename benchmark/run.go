package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarises (0 when the
	// value is a single reading).
	Samples int `json:"samples,omitempty"`
}

// result is the JSON document of one run.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	Metrics map[string]metricValue `json:"metrics"`
	// PhaseSeconds is the wall time of each phase.
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	// Attempted and Failed count ingest batches, flushes, rotations, reads
	// and phase-D gates; a refused, errored or gate-failing one is a failure.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Info states what the numbers were measured on: sizes, the WAL sync
	// policy, sample counts that are not a metric's own.
	Info map[string]any `json:"info"`
	// Layers is the per-layer self-time table of each traced phase.
	Layers map[string][]layerRow `json:"layers,omitempty"`
	Env    envInfo               `json:"env"`
}

// fixture is a stack with its preload applied and its caches warm.
type fixture struct {
	st   stack
	data *workloadData
	dir  string
	// pop is the read-key population, sims and probes the fixed sequences
	// of pair and top-K keys drawn from it, cands the top-K candidate list.
	pop    []stream.User
	sims   [][2]stream.User
	probes []stream.User
	cands  []stream.User
}

// sweep is the position of one read sequence in the fixed key sequences:
// how many pair reads and how many top-K reads it has issued.
type sweep struct{ sim, topk int }

// runner drives one workload through its phases.
type runner struct {
	w    workloadSpec
	seed int64
	// rounds is how many rounds the run makes; roundsCap the wall time
	// after which it stops short of them (see roundsWallCap).
	rounds    int
	roundsCap time.Duration
	tr        *tracer
	work      string

	fx  *fixture
	res *result
	// pos is the cycle offset of the next edge to write.
	pos int
	// quiet and fresh are the read sequences of phases B and C. Each runs on
	// through the rounds, so which keys a run reads is fixed by the round
	// count alone.
	quiet, fresh sweep
	// callNS accumulates the time spent inside stack calls of the current
	// ingest slice, so the generator's own share can be taken.
	callNS int64
}

// readKeys draws the run's read keys. The population is the planted users
// (whose neighbours are known) filled up with the busiest background users
// to hotUsers. Pair reads sweep the shuffled population two users at a
// time and top-K probes sweep its planted part, both cyclically: under LRU
// caches a sweep longer than the cache misses every time and a shorter one
// hits every time, so a phase's reads are all of one kind and no
// percentile straddles two modes.
func readKeys(w workloadSpec, seed int64) (pop, cands []stream.User, sims [][2]stream.User, probes []stream.User) {
	s := w.stream
	for c := 0; c < s.clusters && len(pop) < w.hotUsers; c++ {
		for j := 0; j < s.members && len(pop) < w.hotUsers; j++ {
			pop = append(pop, s.plantedUser(c, j))
		}
	}
	cands = append(cands, pop[:min(w.candidates, len(pop))]...)
	probes = append(probes, pop...)
	for u := 0; len(pop) < w.hotUsers; u++ {
		pop = append(pop, stream.User(u))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6b657973))
	order := append([]stream.User(nil), pop...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i := 0; i+1 < len(order); i += 2 {
		sims = append(sims, [2]stream.User{order[i], order[i+1]})
	}
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	return pop, cands, sims, probes
}

// op counts one operation against the run and passes its error on.
func (r *runner) op(err error) error {
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
	}
	return err
}

// send writes cycle[from:to) in calls of at most batch edges, none of them
// across a parity point, rotating where the cycle says so, and returns the
// edges written.
func (r *runner) send(ctx context.Context, from, to, batch int) (int, error) {
	st, d := r.fx.st, r.fx.data
	for off := from; off < to; {
		if d.rotate[off] {
			t0 := time.Now()
			sctx, done := r.tr.start(ctx, "write.rotate")
			err := r.op(st.rotate(sctx))
			done()
			if err != nil {
				return 0, fmt.Errorf("rotate at %d: %w", off, err)
			}
			r.callNS += time.Since(t0).Nanoseconds()
		}
		end := min(off+batch, to, d.nextParity(off+1))
		t0 := time.Now()
		sctx, done := r.tr.start(ctx, "write.ingest")
		err := r.op(st.ingest(sctx, d.cycle[off:end]))
		done()
		if err != nil {
			return 0, fmt.Errorf("ingest at %d: %w", off, err)
		}
		r.callNS += time.Since(t0).Nanoseconds()
		off = end
	}
	return to - from, nil
}

func (r *runner) syncStack(ctx context.Context) error {
	t0 := time.Now()
	sctx, done := r.tr.start(ctx, "write.sync")
	err := r.op(r.fx.st.sync(sctx))
	done()
	r.callNS += time.Since(t0).Nanoseconds()
	if err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}

// setup builds the stack, loads the preload through its write path, and
// warms it, leaving the result in r.fx: one untimed pass over the churn
// cycle, the first top-K read (which builds the approximate index where
// there is one), and warmReads reads. Everything lazy happens here, so that
// it shows in setup_s and not in a percentile.
func (r *runner) setup(ctx context.Context) error {
	dir, err := scratchDir(r.work, r.w.name+"-*")
	if err != nil {
		return err
	}
	fx := &fixture{dir: dir}
	fx.pop, fx.cands, fx.sims, fx.probes = readKeys(r.w, r.seed)
	fx.st, err = newStack(r.w, fx.cands, dir, r.tr)
	if err != nil {
		return err
	}
	r.fx, r.pos, r.quiet, r.fresh = fx, 0, sweep{}, sweep{}
	fx.data, err = generate(r.w.stream, r.seed, func(edges []stream.Edge, rotateBefore bool) error {
		if rotateBefore {
			if err := r.op(fx.st.rotate(ctx)); err != nil {
				return err
			}
		}
		for off := 0; off < len(edges); off += r.w.ingestBatch {
			if err := r.op(fx.st.ingest(ctx, edges[off:min(off+r.w.ingestBatch, len(edges))])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if _, err := r.send(ctx, 0, len(fx.data.cycle), r.w.ingestBatch); err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	if err := r.syncStack(ctx); err != nil {
		return err
	}
	if err := r.reads(ctx, &r.quiet, warmReads, nil, nil); err != nil {
		return fmt.Errorf("warm-up reads: %w", err)
	}
	return nil
}

// teardown closes the stack r.fx holds, if any, and removes its directory.
func (r *runner) teardown() error {
	if r.fx == nil {
		return nil
	}
	fx := r.fx
	r.fx = nil
	err := fx.st.close()
	if rerr := os.RemoveAll(fx.dir); err == nil {
		err = rerr
	}
	return err
}

// reads issues the next n reads of sw — simPerTopK pair reads, then one
// top-K read, and so on — appending each latency in milliseconds to sim or
// topk when given.
func (r *runner) reads(ctx context.Context, sw *sweep, n int, sim, topk *[]float64) error {
	for i := 0; i < n; i++ {
		if err := r.read(ctx, sw, (sw.sim+sw.topk)%(simPerTopK+1) == simPerTopK, sim, topk); err != nil {
			return err
		}
	}
	return nil
}

// read issues the next pair read or the next top-K read of sw and records
// its latency. Each kind walks its own key sequence, so every probe and
// every pair comes round whatever the mix of the two kinds is.
func (r *runner) read(ctx context.Context, sw *sweep, isTopK bool, sim, topk *[]float64) error {
	fx := r.fx
	if isTopK {
		u := fx.probes[sw.topk%len(fx.probes)]
		sw.topk++
		t0 := time.Now()
		sctx, done := r.tr.start(ctx, "read.topk")
		_, err := fx.st.topK(sctx, u)
		done()
		d := time.Since(t0)
		if r.op(err) != nil {
			return fmt.Errorf("top-K of %d: %w", u, err)
		}
		if topk != nil {
			*topk = append(*topk, ms(d))
		}
		return nil
	}
	k := fx.sims[sw.sim%len(fx.sims)]
	sw.sim++
	t0 := time.Now()
	sctx, done := r.tr.start(ctx, "read.sim")
	_, err := fx.st.similarity(sctx, k[0], k[1])
	done()
	d := time.Since(t0)
	if r.op(err) != nil {
		return fmt.Errorf("similarity of %d,%d: %w", k[0], k[1], err)
	}
	if sim != nil {
		*sim = append(*sim, ms(d))
	}
	return nil
}

// roundSamples is what one round measured: the edges and wall time of its
// ingest slice, the latencies, in milliseconds, of its timed reads, and the
// reference points between which each slice was taken.
type roundSamples struct {
	edges      int
	ingestWall time.Duration
	loadgenNS  int64
	unitRates  []float64

	simQuiet, topkQuiet []float64
	simFresh, topkFresh []float64

	// host holds the reference points around the slices: before A, between
	// A and B, between B and C, after C.
	host [4]float64
}

// Slices of a round, as indices into roundSamples.host.
const (
	sliceA = iota
	sliceB
	sliceC
)

// hostFactor is how slow the host ran during a slice: the mean of the
// reference points on either side of it.
func (rs roundSamples) hostFactor(slice int) float64 {
	return (rs.host[slice] + rs.host[slice+1]) / 2
}

func (rs roundSamples) ingestRate() float64 { return float64(rs.edges) / rs.ingestWall.Seconds() }

// ingestSlice is one round's share of phase A: unitsPerRound units of the
// churn cycle, each from one parity point to the next and closed by a
// sync. onUnit, when given, runs after each unit's last write and before
// its sync, while the queues still hold whatever the producer ran ahead by.
func (r *runner) ingestSlice(ctx context.Context, rs *roundSamples, onUnit func()) error {
	d := r.fx.data
	r.callNS = 0
	start := time.Now()
	for u := 0; u < r.w.unitsPerRound; u++ {
		to := d.nextParity(r.pos + 1)
		t0 := time.Now()
		n, err := r.send(ctx, r.pos, to, r.w.ingestBatch)
		if err != nil {
			return err
		}
		if onUnit != nil {
			onUnit()
		}
		if err := r.syncStack(ctx); err != nil {
			return err
		}
		rs.unitRates = append(rs.unitRates, float64(n)/time.Since(t0).Seconds())
		rs.edges += n
		r.pos = to % len(d.cycle)
	}
	rs.ingestWall = time.Since(start)
	rs.loadgenNS = rs.ingestWall.Nanoseconds() - r.callNS
	return nil
}

// quietSlice is one round's share of phase B: reads against a stack nobody
// writes to. The ingest slice before it moved the state, so the caches are
// filled again by warmReads untimed reads first. Before those comes the
// first write of the cycle's next stretch: the ingest slice ended on a
// parity point, where a windowed stack rotates with its next write, and the
// read after a rotation re-bands the whole approximate index. Written here,
// that falls into the warm-up and not on the round's first fresh read.
func (r *runner) quietSlice(ctx context.Context, rs *roundSamples) error {
	if err := r.freshWrite(ctx); err != nil {
		return err
	}
	if err := r.reads(ctx, &r.quiet, warmReads, nil, nil); err != nil {
		return err
	}
	n := r.w.quietSims + r.w.quietSims/simPerTopK
	for i := 0; i < n; i++ {
		if i%quietReadsPerGC == 0 {
			runtime.GC()
		}
		if err := r.reads(ctx, &r.quiet, 1, &rs.simQuiet, &rs.topkQuiet); err != nil {
			return err
		}
	}
	return nil
}

// freshWrite writes the next freshWriteEdges edges of the cycle and waits
// for them to be applied.
func (r *runner) freshWrite(ctx context.Context) error {
	d := r.fx.data
	to := min(r.pos+freshWriteEdges, d.nextParity(r.pos+1))
	if _, err := r.send(ctx, r.pos, to, freshWriteEdges); err != nil {
		return err
	}
	r.pos = to % len(d.cycle)
	return r.syncStack(ctx)
}

// freshSlice is one round's share of phase C: reads that each follow an
// acknowledged write of freshWriteEdges edges, so every sample pays for
// observing new state and no percentile mixes warm reads with cold ones.
// The writes continue the churn cycle; afterwards the cycle is played out
// to its next parity point, so that the next round's ingest units are whole
// and phase D finds the preload state.
func (r *runner) freshSlice(ctx context.Context, rs *roundSamples) error {
	for i := 0; i < 2*r.w.freshReads; i++ {
		if i%freshWritesPerGC == 0 {
			runtime.GC()
		}
		if err := r.freshWrite(ctx); err != nil {
			return err
		}
		if err := r.read(ctx, &r.fresh, i%2 == 1, &rs.simFresh, &rs.topkFresh); err != nil {
			return err
		}
	}
	return r.toParity(ctx)
}

// toParity plays the cycle out to its next parity point.
func (r *runner) toParity(ctx context.Context) error {
	d := r.fx.data
	to := d.nextParity(r.pos)
	if _, err := r.send(ctx, r.pos, to, r.w.ingestBatch); err != nil {
		return err
	}
	r.pos = to % len(d.cycle)
	return r.syncStack(ctx)
}

// gate counts one phase-D check.
func (r *runner) gate(ok bool, format string, args ...any) error {
	if ok {
		return r.op(nil)
	}
	return r.op(fmt.Errorf("gate failed: "+format, args...))
}

// verify is phase D. Nothing is printed unless all of it passes.
func (r *runner) verify(ctx context.Context) (rmse float64, err error) {
	fx, d := r.fx, r.fx.data
	// The oracle is one core.VOS fed the same preload, generated a second
	// time so that the preload never has to be held in memory.
	oracle, err := core.New(r.w.sketch)
	if err != nil {
		return 0, err
	}
	if _, err := generate(r.w.stream, r.seed, func(edges []stream.Edge, _ bool) error {
		oracle.ProcessBatch(edges)
		return nil
	}); err != nil {
		return 0, err
	}
	want, err := oracle.MarshalBinary()
	if err != nil {
		return 0, err
	}

	// Gate 0: the stack's own ledgers. A datagram the socket dropped shows
	// here as a gap, before it shows as a parity failure.
	if err := r.gate(fx.st.check() == nil, "%v", fx.st.check()); err != nil {
		return 0, err
	}

	// Gate 1: after any number of whole passes the state is the preload
	// state, bit for bit — the paper's XOR property as a parity check.
	if err := r.sameState(ctx, want, "after the timed passes", "the preload state"); err != nil {
		return 0, err
	}

	// Gate 2: half-way through a pass, where the state is not the preload
	// state, the stack still equals one sketch fed the same logical stream
	// (for the window: only the in-window epochs), and answers like it.
	if r.w.stack == stackHTTP {
		// The half pass below becomes the WAL suffix no checkpoint covers.
		_, err := fx.st.engines()[0].Checkpoint()
		if r.op(err) != nil {
			return 0, fmt.Errorf("checkpoint: %w", err)
		}
	}
	end := d.nextParity(r.pos + 1)
	mid := (r.pos + end) / 2
	if _, err := r.send(ctx, r.pos, mid, r.w.ingestBatch); err != nil {
		return 0, err
	}
	if err := r.syncStack(ctx); err != nil {
		return 0, err
	}
	half, err := core.UnmarshalVOS(want)
	if err != nil {
		return 0, err
	}
	d.apply(r.pos, mid, half.ProcessBatch)
	wantHalf, err := half.MarshalBinary()
	if err != nil {
		return 0, err
	}
	if err := r.sameState(ctx, wantHalf, "half-way through a pass", "the oracle's"); err != nil {
		return 0, err
	}
	if err := r.sameAnswers(ctx, half); err != nil {
		return 0, err
	}
	if r.w.stack == stackHTTP {
		if err := r.crashRecovery(wantHalf); err != nil {
			return 0, err
		}
	}
	if _, err := r.send(ctx, mid, end, r.w.ingestBatch); err != nil {
		return 0, err
	}
	if err := r.syncStack(ctx); err != nil {
		return 0, err
	}
	r.pos = end % len(d.cycle)
	if err := r.sameState(ctx, want, "after the closing half pass", "the preload state"); err != nil {
		return 0, err
	}
	if err := r.sameAnswers(ctx, oracle); err != nil {
		return 0, err
	}

	// est_rmse: estimated against analytically known Jaccard over the
	// planted pairs. The stack's state is the oracle's, so the oracle's
	// estimates are the stack's; it repeats exactly for a given seed.
	var sq float64
	for _, p := range d.planted {
		diff := oracle.Query(p.u, p.v).Jaccard - p.jaccard
		sq += diff * diff
	}
	rmse = math.Sqrt(sq / float64(len(d.planted)))
	if err := r.gate(rmse <= r.w.rmseCeiling, "est_rmse %.4f above the ceiling %.4f", rmse, r.w.rmseCeiling); err != nil {
		return 0, err
	}
	r.res.Info["planted_pairs"] = len(d.planted)
	r.res.Info["beta"] = oracle.Beta()

	if r.w.ann != nil {
		recall, err := r.annGate(ctx, oracle)
		if err != nil {
			return 0, err
		}
		r.res.Info["recall_at_10"] = recall
	}
	return rmse, nil
}

// sameState holds the stack's exported state against want, bit for bit.
func (r *runner) sameState(ctx context.Context, want []byte, when, what string) error {
	got, err := r.fx.st.export(ctx)
	if r.op(err) != nil {
		return fmt.Errorf("export: %w", err)
	}
	return r.gate(bytes.Equal(got, want), "the state %s differs from %s", when, what)
}

// sameAnswers compares sampled pair and cardinality answers with ref's.
func (r *runner) sameAnswers(ctx context.Context, ref *core.VOS) error {
	fx := r.fx
	for i := 0; i < gateSamples; i++ {
		k := fx.sims[(i*257)%len(fx.sims)]
		if i%2 == 1 {
			p := fx.data.planted[(i*131)%len(fx.data.planted)]
			k = [2]stream.User{p.u, p.v}
		}
		est, err := fx.st.similarity(ctx, k[0], k[1])
		if r.op(err) != nil {
			return fmt.Errorf("similarity of %d,%d: %w", k[0], k[1], err)
		}
		if err := r.gate(est == ref.Query(k[0], k[1]), "similarity of %d,%d differs from the oracle's", k[0], k[1]); err != nil {
			return err
		}
		card, err := fx.st.cardinality(ctx, k[0])
		if r.op(err) != nil {
			return fmt.Errorf("cardinality of %d: %w", k[0], err)
		}
		if err := r.gate(card == ref.Cardinality(k[0]), "cardinality of %d is %d, the oracle's %d", k[0], card, ref.Cardinality(k[0])); err != nil {
			return err
		}
	}
	return nil
}

// annGate checks the approximate top-K read against the exact scan over
// every user: mean recall@10 of at least annMinRecall, and each result a
// subset-ordered prefix of the exact ranking with the exact estimates.
const annMinRecall = 0.95

func (r *runner) annGate(ctx context.Context, oracle *core.VOS) (float64, error) {
	var all []stream.User
	oracle.ForEachUser(func(u stream.User, _ int64) bool {
		all = append(all, u)
		return true
	})
	// With every user's recovered sketch cached, only the first exact scan
	// pays for recovering them.
	oracle.SetRecoveredCacheCapacity(len(all) + 1)
	s := r.w.stream
	var recall float64
	var scored int
	for c := 0; c < s.clusters; c++ {
		u := s.plantedUser(c, c%s.members)
		approx, err := r.fx.st.topK(ctx, u)
		if r.op(err) != nil {
			return 0, fmt.Errorf("approximate top-K of %d: %w", u, err)
		}
		// Asking for everything returns every candidate the index yields.
		every, err := r.fx.st.engines()[0].TopKApprox(u, math.MaxInt32)
		if r.op(err) != nil {
			return 0, err
		}
		scored += len(every)
		exact := oracle.TopK(u, all, topN)
		in := map[stream.User]bool{}
		for _, e := range exact {
			in[e.User] = true
		}
		hits := 0
		for i, a := range approx {
			if in[a.User] {
				hits++
			}
			ordered := i == 0 || !core.RankBefore(a, approx[i-1])
			if err := r.gate(ordered && a.Estimate == oracle.Query(u, a.User),
				"approximate top-K of %d is not an exact-estimate ordered prefix at rank %d", u, i); err != nil {
				return 0, err
			}
		}
		recall += float64(hits) / float64(len(exact))
	}
	recall /= float64(s.clusters)
	r.res.Info["ann_candidates_per_probe"] = float64(scored) / float64(s.clusters)
	return recall, r.gate(recall >= annMinRecall, "recall@%d %.3f below %.2f", topN, recall, annMinRecall)
}

// crashRecovery checks the durable plane: with a checkpoint behind it and
// an un-checkpointed suffix after it, the directory as a crash of the
// process would leave it must reopen to exactly the state the engine held.
// The engine is idle and every acknowledged batch has been written to the
// log (written, not fsynced: see walSync), so a copy of its directory is
// that crash image; recovering the copy leaves the live engine alone.
func (r *runner) crashRecovery(want []byte) error {
	image, err := scratchDir(r.work, "crash-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(image)
	if err := copyFiles(r.fx.dir, image); err != nil {
		return err
	}
	t0 := time.Now()
	re, err := vos.OpenEngine(image, durableConfig(r.w))
	if r.op(err) != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	got, err := re.MarshalBinary()
	r.res.Info["recover_s"] = time.Since(t0).Seconds()
	if cerr := re.Close(); err == nil {
		err = cerr
	}
	if r.op(err) != nil {
		return fmt.Errorf("recovered engine: %w", err)
	}
	return r.gate(bytes.Equal(got, want), "state recovered from the WAL differs from the state written")
}

// copyFiles copies the regular files of directory from into directory to.
func copyFiles(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// procStatusMB returns one memory line of /proc/self/status (VmRSS:, the
// resident set now, or VmHWM:, its peak) in MiB.
func procStatusMB(key string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte(key)); ok {
			var kb float64
			if _, err := fmt.Sscanf(string(bytes.TrimSpace(rest)), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("benchmark: no %s in /proc/self/status", key)
}

// settle runs a collection between slices, so that one slice's garbage is
// not collected on the next one's clock.
func settle() { runtime.GC() }

// run executes one workload once and returns its result. The process runs
// one workload and exits: runs never share a heap.
func run(w workloadSpec, seed int64, seconds float64, trace bool, work string) (*result, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	r := &runner{w: w, seed: seed, work: filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))}
	// -seconds scales the number of rounds and nothing else: what a round
	// does is fixed.
	r.rounds = max(minRounds, int(math.Round(float64(w.rounds)*seconds/defaultSeconds)))
	r.roundsCap = time.Duration(roundsWallCap * seconds * float64(time.Second))
	r.res = &result{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: trace,
		Metrics: map[string]metricValue{}, PhaseSeconds: map[string]float64{},
		Info: map[string]any{}, Env: environment(),
	}
	defer os.RemoveAll(r.work)
	defer r.teardown() // a failed run's stack; a finished run has closed its own
	if trace {
		r.tr = newTracer()
		return r.res, r.runTraced(context.Background(), work)
	}
	return r.res, r.runEndToEnd(context.Background())
}

// maxProcs caps GOMAXPROCS so that a larger machine does not change what
// the workloads contend for.
const maxProcs = 4

func (r *runner) set(name string, v float64, samples int) {
	for _, decls := range [][]metricDecl{endToEnd, perLayer} {
		for _, m := range decls {
			if m.Name == name {
				r.res.Metrics[name] = metricValue{Value: v, Unit: m.Unit, Samples: samples}
				return
			}
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// round runs one slice of each measured phase, a collection and a
// reference point between them.
func (r *runner) round(ctx context.Context, onUnit func()) (roundSamples, error) {
	var rs roundSamples
	for i, slice := range []struct {
		phase string
		run   func() error
	}{
		{"A_ingest", func() error { return r.ingestSlice(ctx, &rs, onUnit) }},
		{"B_quiet", func() error { return r.quietSlice(ctx, &rs) }},
		{"C_fresh", func() error { return r.freshSlice(ctx, &rs) }},
	} {
		settle()
		rs.host[i] = hostPoint()
		r.tr.setPhase(slice.phase)
		t0 := time.Now()
		if err := slice.run(); err != nil {
			return rs, fmt.Errorf("phase %s: %w", slice.phase[:1], err)
		}
		r.res.PhaseSeconds[slice.phase] += time.Since(t0).Seconds()
		r.tr.setPhase("")
	}
	rs.host[3] = hostPoint()
	return rs, nil
}

// overRounds turns the per-round values of one timing into the run's
// figure: each round's value is scaled by the host factor of its slice (a
// time is divided by it, a rate multiplied), and the figure is the median
// of the scaled values. The per-round values, scaled and not, stay in the
// result document under name.
//
// The median over forty rounds, and not a low quantile of them: with the
// host's share taken out round by round, what is left differs from round
// to round by the reference points' own noise, which is symmetric.
func (r *runner) overRounds(name string, rate bool, rounds []roundSamples, slice int, value func(roundSamples) float64) float64 {
	raw, scaled := make([]float64, len(rounds)), make([]float64, len(rounds))
	for i, rs := range rounds {
		raw[i] = value(rs)
		if f := rs.hostFactor(slice); rate {
			scaled[i] = raw[i] * f
		} else {
			scaled[i] = raw[i] / f
		}
	}
	r.info("round_values")[name] = scaled
	r.info("round_values_unscaled")[name] = raw
	return median(append([]float64(nil), scaled...))
}

// info returns the named map of the result's Info, making it on first use.
func (r *runner) info(key string) map[string]any {
	m, _ := r.res.Info[key].(map[string]any)
	if m == nil {
		m = map[string]any{}
		r.res.Info[key] = m
	}
	return m
}

// setLatencies reports one latency series, taken per round: its median as
// the end-to-end metric name_p50_ms, and its 95th percentile beside it in
// the result document. The tail has no bound and is no metric of
// BENCHMARK.json: on this host a p95 is made of the reads a neighbour
// disturbed, and between identical runs it spread by up to 0.3 even after
// scaling (README, "Why no tail percentile is gated").
func (r *runner) setLatencies(name string, rounds []roundSamples, slice int, series func(roundSamples) []float64) {
	samples := 0
	for _, rs := range rounds {
		samples += len(series(rs))
	}
	p50 := r.overRounds(name+"_p50_ms", false, rounds, slice, func(rs roundSamples) float64 { return percentile(series(rs), 0.50) })
	r.set(name+"_p50_ms", p50, samples)
	p95 := r.overRounds(name+"_p95_ms", false, rounds, slice, func(rs roundSamples) float64 { return percentile(series(rs), 0.95) })
	r.info("tails")[name+"_p95_ms"] = metricValue{Value: p95, Unit: "ms", Samples: samples}
}

// runEndToEnd is the untraced run: setup (setupRepeats times, the last one
// kept), the rounds of A ingest, B quiet and C fresh, D verify.
func (r *runner) runEndToEnd(ctx context.Context) error {
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if err := r.teardown(); err != nil {
			return fmt.Errorf("teardown: %w", err)
		}
		settle()
		before := hostPoint()
		t0 := time.Now()
		if err := r.setup(ctx); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0).Seconds()
		r.res.PhaseSeconds["setup"] += took
		setups = append(setups, took/((before+hostPoint())/2))
	}
	r.res.Info["setup_s_each"] = append([]float64(nil), setups...)
	r.set("setup_s", median(setups), len(setups))

	rounds := make([]roundSamples, 0, r.rounds)
	var rss []float64
	start := time.Now()
	for i := 0; i < r.rounds; i++ {
		if i >= minRounds && time.Since(start) > r.roundsCap {
			r.res.Info["stopped_after_s"] = time.Since(start).Seconds()
			break
		}
		rs, err := r.round(ctx, nil)
		if err != nil {
			return err
		}
		rounds = append(rounds, rs)
		mb, err := procStatusMB("VmRSS:")
		if err != nil {
			return err
		}
		rss = append(rss, mb)
	}
	units := len(rounds) * r.w.unitsPerRound
	r.set("ingest_edges_per_s", r.overRounds("ingest_edges_per_s", true, rounds, sliceA, roundSamples.ingestRate), units)
	r.setLatencies("sim_quiet", rounds, sliceB, func(rs roundSamples) []float64 { return rs.simQuiet })
	r.setLatencies("topk_quiet", rounds, sliceB, func(rs roundSamples) []float64 { return rs.topkQuiet })
	r.setLatencies("sim_fresh", rounds, sliceC, func(rs roundSamples) []float64 { return rs.simFresh })
	r.setLatencies("topk_fresh", rounds, sliceC, func(rs roundSamples) []float64 { return rs.topkFresh })
	r.describeRounds(rounds)

	// Memory is read before phase D: the oracle sketches and exported
	// states verify holds are the harness's memory, not the program's.
	r.set("rss_mb", median(rss), len(rss))
	peak, err := procStatusMB("VmHWM:")
	if err != nil {
		return err
	}
	r.res.Info["rss_peak_mb"] = peak

	settle()
	t0 := time.Now()
	rmse, err := r.verify(ctx)
	if err != nil {
		return fmt.Errorf("phase D: %w", err)
	}
	r.res.PhaseSeconds["D_verify"] = time.Since(t0).Seconds()
	r.set("est_rmse", rmse, len(r.fx.data.planted))
	r.describe()

	return r.teardown()
}

// describeRounds records how many rounds the run made and how far the
// ingest units within them spread.
func (r *runner) describeRounds(rounds []roundSamples) {
	var units []float64
	edges := 0
	for _, rs := range rounds {
		units = append(units, rs.unitRates...)
		edges += rs.edges
	}
	var host []float64
	for _, rs := range rounds {
		host = append(host, rs.host[:]...)
	}
	r.res.Info["rounds"] = len(rounds)
	r.res.Info["ingest_edges"] = edges
	r.res.Info["host_factor_min_p50_max"] = [3]float64{percentile(host, 0.001), median(host), percentile(host, 1)}
	r.res.Info["ingest_unit_rate_min_p25_p50_p75_max"] = [5]float64{
		percentile(units, 0.01), percentile(units, 0.25), median(units), percentile(units, 0.75), percentile(units, 1)}
}

// describe records the sizes the run was measured at.
func (r *runner) describe() {
	r.res.Info["stack"] = r.w.stack
	r.res.Info["sketch_memory_bits"] = r.w.sketch.MemoryBits
	r.res.Info["sketch_bits"] = r.w.sketch.SketchBits
	r.res.Info["hash_family"] = r.w.sketch.Family.String()
	r.res.Info["cycle_edges"] = len(r.fx.data.cycle)
	r.res.Info["ingest_batch"] = r.w.ingestBatch
	r.res.Info["units_per_round"] = r.w.unitsPerRound
	r.res.Info["fresh_write_edges"] = freshWriteEdges
	r.res.Info["read_key_users"] = len(r.fx.pop)
	r.res.Info["topk_candidates"] = len(r.fx.cands)
	if r.w.stack == stackHTTP {
		r.res.Info["wal_sync"] = walSync.String()
	}
}
