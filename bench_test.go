// Top-level benchmark harness: one testing.B benchmark per figure panel of
// the paper's evaluation (§V), plus the repository's ablations (see README.md). Each
// benchmark regenerates the corresponding figure's quantity — per-element
// update cost for Figure 2, final AAPE/ARMSE (reported via b.ReportMetric)
// for Figure 3 — at laptop scale.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// For the full-resolution figures (larger scales, bigger k sweeps), use
// cmd/vosbench, which prints the complete tables.
package vos_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/cluster"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/experiments"
	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/poscache"
	"github.com/vossketch/vos/internal/similarity"
	"github.com/vossketch/vos/server"
)

// benchOptions shrink the workloads so a full -bench=. pass stays in the
// minutes range; vosbench runs the full-size versions.
func benchOptions() experiments.Options {
	return experiments.Options{
		Scale:        0.004,
		Seed:         2,
		K32:          100,
		Lambda:       2,
		TopUsers:     60,
		MaxPairs:     200,
		Checkpoints:  6,
		RuntimeUsers: 500,
		RuntimeEdges: 20_000,
		RuntimeKs:    []int{1, 10, 100, 1000},
	}
}

// benchStream memoises the Figure 2 runtime workload.
var benchStreamCache []vos.Edge

func benchStream(b *testing.B) []vos.Edge {
	b.Helper()
	if benchStreamCache == nil {
		p := gen.YouTube
		p.Users = 500
		p.Items = 2000
		p.Edges = 20_000
		base := gen.Bipartite(p, 2)
		benchStreamCache = gen.Dynamize(base, gen.PaperDynamize(len(base), 3))
	}
	return benchStreamCache
}

// BenchmarkFig2a regenerates Figure 2(a): per-element update cost on the
// YouTube-shaped workload as k sweeps, for all four methods. ns/op is the
// figure's y-axis (the paper plots seconds for a fixed stream, which is
// ns/edge times stream length).
func BenchmarkFig2a(b *testing.B) {
	edges := benchStream(b)
	for _, k := range benchOptions().RuntimeKs {
		for _, method := range vos.Methods {
			b.Run(fmt.Sprintf("k=%d/%s", k, method), func(b *testing.B) {
				est := vos.MustNewEstimator(method,
					vos.Budget{K32: k, Users: 500, Lambda: 2}, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					est.Process(edges[i%len(edges)])
				}
			})
		}
	}
}

// BenchmarkFig2b regenerates Figure 2(b): per-element update cost at the
// largest swept k on each dataset-shaped workload.
func BenchmarkFig2b(b *testing.B) {
	opts := benchOptions()
	k := opts.RuntimeKs[len(opts.RuntimeKs)-1]
	for _, p := range gen.Profiles {
		rp := p
		rp.Users = opts.RuntimeUsers
		rp.Items = opts.RuntimeUsers * 4
		rp.Edges = opts.RuntimeEdges
		base := gen.Bipartite(rp, opts.Seed)
		edges := gen.Dynamize(base, gen.PaperDynamize(len(base), opts.Seed+1))
		for _, method := range vos.Methods {
			b.Run(fmt.Sprintf("%s/%s", p.Name, method), func(b *testing.B) {
				est := vos.MustNewEstimator(method,
					vos.Budget{K32: k, Users: int(opts.RuntimeUsers), Lambda: 2}, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					est.Process(edges[i%len(edges)])
				}
			})
		}
	}
}

// accuracyBench runs the §V accuracy protocol once per iteration and
// reports the requested final metric for every method as custom benchmark
// metrics (AAPE_<method> or ARMSE_<method>).
func accuracyBench(b *testing.B, p gen.Profile, metric string) {
	opts := benchOptions()
	var last *experiments.AccuracyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAccuracy(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	final, armse := last.Final()
	if metric != "AAPE" {
		final = armse
	}
	for _, m := range similarity.Methods {
		b.ReportMetric(final[m], metric+"_"+m)
	}
}

// BenchmarkFig3a regenerates Figure 3(a): the AAPE-over-time experiment on
// YouTube (final AAPE per method reported as metrics; the full trajectory
// comes from `vosbench -experiment fig3a`).
func BenchmarkFig3a(b *testing.B) {
	accuracyBench(b, gen.YouTube, "AAPE")
}

// BenchmarkFig3c regenerates Figure 3(c): ARMSE over time on YouTube.
func BenchmarkFig3c(b *testing.B) {
	accuracyBench(b, gen.YouTube, "ARMSE")
}

// BenchmarkFig3b regenerates Figure 3(b): final AAPE on each dataset.
func BenchmarkFig3b(b *testing.B) {
	for _, p := range gen.Profiles {
		b.Run(p.Name, func(b *testing.B) {
			accuracyBench(b, p, "AAPE")
		})
	}
}

// BenchmarkFig3d regenerates Figure 3(d): final ARMSE on each dataset.
func BenchmarkFig3d(b *testing.B) {
	for _, p := range gen.Profiles {
		b.Run(p.Name, func(b *testing.B) {
			accuracyBench(b, p, "ARMSE")
		})
	}
}

// BenchmarkAblLambda regenerates the λ-sensitivity ablation; the table
// itself comes from `vosbench -experiment abl-lambda`.
func BenchmarkAblLambda(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblLambda(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblLoad regenerates the array-load ablation.
func BenchmarkAblLoad(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblLoad(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblDense regenerates the densification ablation.
func BenchmarkAblDense(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblDense(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblDelBias regenerates the deletion-pressure bias ablation.
func BenchmarkAblDelBias(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblDelBias(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// ingestStream memoises a larger feasible workload for the ingestion
// benchmarks (the Figure 2 stream is too short to exercise backpressure).
var ingestStreamCache []vos.Edge

func ingestStream(b *testing.B) []vos.Edge {
	b.Helper()
	if ingestStreamCache == nil {
		p := gen.YouTube
		p.Users = 20_000
		p.Items = 100_000
		p.Edges = 400_000
		base := gen.Bipartite(p, 7)
		ingestStreamCache = gen.Dynamize(base, gen.PaperDynamize(len(base), 8))
	}
	return ingestStreamCache
}

// ingestConfig is the paper-scale accuracy configuration used by all
// ingestion benchmarks, so their numbers are comparable.
func ingestConfig() vos.Config {
	return vos.Config{MemoryBits: 1 << 24, SketchBits: 6400, Seed: 1}
}

// BenchmarkWindowedIngest measures the sliding-window write path: each
// edge lands in the live merged view alone (the current bucket is what that
// view gained since the last rotation), one bit flip and one counter bump,
// so the expected cost is BenchmarkSequentialIngest's.
func BenchmarkWindowedIngest(b *testing.B) {
	edges := ingestStream(b)
	w, err := core.NewWindow(ingestConfig(), 8, time.Hour, time.Now())
	if err != nil {
		b.Fatal(err)
	}
	live := w.Merged()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live.Process(edges[i%len(edges)])
	}
}

// BenchmarkWindowRotate measures retiring one bucket at paper scale
// (m=2^24, B=8) and at the shape of one udp-window-ann shard (m=2^20, B=4,
// k=1600, the fast family, a bucket of 32,768 edges over 368 users). A
// rotation is one pass over the three arrays it changes — merged and base
// lose the retired bucket, whose storage takes the closing one — a walk of
// the retired bucket's counters, the closing bucket's counters derived from
// merged's and base's, and merged's table copied into base's; independent of
// how many edges the buckets absorbed. 2·B rotations before the timer starts
// grow every table, after which a rotation allocates nothing. Each iteration
// refills the current bucket (untimed) and times only the rotation.
func BenchmarkWindowRotate(b *testing.B) {
	p := gen.YouTube
	p.Users = 368
	p.Items = 1 << 14
	p.Edges = 4 * 32_768
	base := gen.Bipartite(p, 7)
	udp := gen.Dynamize(base, gen.PaperDynamize(len(base), 8))
	for _, c := range []struct {
		name    string
		cfg     vos.Config
		buckets int
		edges   []vos.Edge
		fill    int
	}{
		{"m=2^24,B=8", ingestConfig(), 8, ingestStream(b), 50_000},
		{"udp-window-ann", vos.Config{MemoryBits: 1 << 20, SketchBits: 1600, Seed: 1, Family: vos.FamilyFast}, 4, udp, 32_768},
	} {
		b.Run(c.name, func(b *testing.B) {
			w, err := core.NewWindow(c.cfg, c.buckets, time.Hour, time.Now())
			if err != nil {
				b.Fatal(err)
			}
			pos := 0
			refill := func() {
				for j := 0; j < c.fill; j++ {
					w.Merged().Process(c.edges[pos%len(c.edges)])
					pos++
				}
			}
			for i := 0; i < 2*c.buckets; i++ {
				refill()
				w.Rotate()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				refill()
				b.StartTimer()
				w.Rotate()
			}
		})
	}
}

// BenchmarkSequentialIngest is the single-goroutine, single-sketch
// baseline the sharded engine competes with.
func BenchmarkSequentialIngest(b *testing.B) {
	edges := ingestStream(b)
	sk := vos.MustNew(ingestConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Process(edges[i%len(edges)])
	}
}

// BenchmarkSketchProcessBatch measures the block kernel that the engine's
// shard workers, the resident views and WAL replay run (what
// BenchmarkSequentialIngest times is Process, the scalar reference):
// 4,096-edge ProcessBatch calls on a sketch that already holds 20,000 users.
// The stream is a Zipf churn shaped like the repository benchmark's — a drawn
// user drops a live item 45 % of the time it has one and subscribes
// otherwise, so the tail's counters keep crossing zero. A first stretch of it
// is the preload; the timed stretch runs forwards and then backwards with
// every action inverted, so that each pass over it returns the sketch to the
// preloaded state. One op is one call; ns/edge is the figure. At m = 2^24
// (ingestConfig) the 2 MiB array's misses own most of an edge; at m = 2^21,
// the array of the repository benchmark's embed-churn, the hashes and the
// counter do.
func BenchmarkSketchProcessBatch(b *testing.B) {
	const (
		users = 20_000
		call  = 4096
		calls = 64
	)
	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.6, 8, users-1)
	live := make([]uint32, users)
	next := func() vos.Edge {
		u := zipf.Uint64()
		if live[u] > 0 && rng.Float64() < 0.45 {
			live[u]--
			return vos.Edge{User: vos.User(u), Item: vos.Item(live[u]), Op: vos.Delete}
		}
		live[u]++
		return vos.Edge{User: vos.User(u), Item: vos.Item(live[u] - 1), Op: vos.Insert}
	}
	// The busy users arrive first, as they do in a stream; then every user
	// the stretch left without a live item gets one.
	preload := make([]vos.Edge, 0, call*calls+users)
	for len(preload) < call*calls {
		preload = append(preload, next())
	}
	for u := range live {
		if live[u] == 0 {
			preload, live[u] = append(preload, vos.Edge{User: vos.User(u), Op: vos.Insert}), 1
		}
	}
	edges := make([]vos.Edge, call*calls)
	for i := 0; i < len(edges)/2; i++ {
		e := next()
		edges[i], edges[len(edges)-1-i] = e, vos.Edge{User: e.User, Item: e.Item, Op: 1 - e.Op}
	}
	for _, logM := range []int{21, 24} {
		b.Run(fmt.Sprintf("m=2^%d", logM), func(b *testing.B) {
			cfg := ingestConfig()
			cfg.MemoryBits = 1 << logM
			sk := vos.MustNew(cfg)
			sk.ProcessBatch(preload)
			if sk.Users() != users {
				b.Fatalf("preloaded sketch holds %d users, want %d", sk.Users(), users)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := i % calls * call
				sk.ProcessBatch(edges[off : off+call])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*call), "ns/edge")
		})
	}
}

// BenchmarkEngineIngest measures sharded-engine ingest at 1/2/4/8 shards
// with parallel producers. On a multicore machine, ns/op should fall
// (throughput rise) monotonically from 1 to 4 shards while worker cost
// dominates; on a single core the sub-benchmarks collapse to parity, which
// is the scaling floor. Edges flow through ProcessBatch in chunks, the
// high-throughput path, and each sub-benchmark ends with a Flush so the
// timing covers applied edges, not just enqueued ones.
//
// It can witness a write-path change of about a fifth or more, not a few
// percent: on a 2-vCPU Xeon at -cpu 2, twelve runs of shards=2 read
// 23.6–46.4 ns/op with quartiles 26.6–32.0, shards=1 19.9–43.2 with
// quartiles 24.5–31.0. A smaller claim needs the repository benchmark's
// alternating pairs.
func BenchmarkEngineIngest(b *testing.B) {
	edges := ingestStream(b)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			eng := vos.MustNewEngine(vos.EngineConfig{
				Sketch: ingestConfig(),
				Shards: shards,
			})
			defer eng.Close()
			ingestParallel(b, eng, edges)
		})
	}
}

// ingestParallel times edges flowing into eng from RunParallel's producers,
// one edge an op and 512 to a ProcessBatch, then a Flush. Each producer
// reserves a run of 512 stream positions per atomic add, so the producers
// meet on the shared counter once a batch rather than once an edge, and the
// timing is the engine's rather than that cache line's.
func ingestParallel(b *testing.B, eng *vos.Engine, edges []vos.Edge) {
	const chunk = 512
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]vos.Edge, 0, chunk)
		var at, end uint64
		for pb.Next() {
			if at == end {
				end = next.Add(chunk)
				at = end - chunk
			}
			buf = append(buf, edges[at%uint64(len(edges))])
			at++
			if len(buf) == chunk {
				if err := eng.ProcessBatch(buf); err != nil {
					b.Error(err)
					return
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			if err := eng.ProcessBatch(buf); err != nil {
				b.Error(err)
			}
		}
	})
	eng.Flush()
	b.StopTimer()
}

// BenchmarkEngineFlushAfterWrite measures what a read-your-writes caller
// waits for after a small write: a 256-edge ProcessBatch (untimed), then
// Flush alone — two residues handed to two workers, about 10 µs of apply
// work, and the wake-up when the second worker is done. Reports the mean
// and the median of the timed Flush calls in µs.
func BenchmarkEngineFlushAfterWrite(b *testing.B) {
	edges := ingestStream(b)
	const write = 256
	eng := vos.MustNewEngine(vos.EngineConfig{Sketch: ingestConfig(), Shards: 2})
	defer eng.Close()
	waits := make([]time.Duration, b.N)
	for i := range waits {
		at := i * write % (len(edges) - write)
		if err := eng.ProcessBatch(edges[at : at+write]); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		eng.Flush()
		waits[i] = time.Since(start)
	}
	var total time.Duration
	for _, w := range waits {
		total += w
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	b.ReportMetric(float64(total.Nanoseconds())/1e3/float64(b.N), "µs/op")
	b.ReportMetric(float64(waits[b.N/2].Nanoseconds())/1e3, "p50-µs")
}

// BenchmarkEngineIngestDurable measures the WAL overhead per sync policy:
// the same ProcessBatch workload as BenchmarkEngineIngest (2 shards)
// flowing through a durable engine with the write-ahead log enabled. The
// gap to the memory-only engine is the price of durability; the gap
// between policies is the price of the fsync schedule — SyncOff pays only
// the record encode+write, SyncEveryN amortises fsyncs over 4096 edges,
// SyncEveryBatch fsyncs per 512-edge chunk (acknowledged = durable).
func BenchmarkEngineIngestDurable(b *testing.B) {
	edges := ingestStream(b)
	policies := []struct {
		name string
		d    vos.DurabilityConfig
	}{
		{"sync=off", vos.DurabilityConfig{Sync: vos.SyncOff}},
		{"sync=every4096", vos.DurabilityConfig{Sync: vos.SyncEveryN, SyncEveryN: 4096}},
		{"sync=everybatch", vos.DurabilityConfig{Sync: vos.SyncEveryBatch}},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			eng, err := vos.OpenEngine(b.TempDir(), vos.EngineConfig{
				Sketch:     ingestConfig(),
				Shards:     2,
				Durability: &p.d,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			ingestParallel(b, eng, edges)
		})
	}
}

// BenchmarkCheckpoint measures the stop-the-world cost of persisting the
// merged sketch at the paper-scale configuration — what a production
// deployment pays per checkpoint interval.
func BenchmarkCheckpoint(b *testing.B) {
	edges := ingestStream(b)
	eng, err := vos.OpenEngine(b.TempDir(), vos.EngineConfig{
		Sketch:     ingestConfig(),
		Shards:     2,
		Durability: &vos.DurabilityConfig{Sync: vos.SyncOff},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	if err := eng.ProcessBatch(edges[:100_000]); err != nil {
		b.Fatal(err)
	}
	eng.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFreshQuery measures the read that follows a write: one
// 256-edge ProcessBatch, Flush, then a pair Query, at the shape of the
// repository benchmark's embed-churn workload (2 shards, m = 2^21, k =
// 6400, 20k live users, position cache off). The query has to bring the
// merged snapshot current first; with a resident view that is a replay of
// the last write, not a re-merge of both shards and 20k counters. After the
// loop the engine's export must be byte-identical to a single sketch fed
// the same stream, and every timed refresh must have replayed its write's
// edges and no others.
func BenchmarkEngineFreshQuery(b *testing.B) {
	const users, batch = 20_000, 256
	cfg := vos.Config{MemoryBits: 1 << 21, SketchBits: 6400, Seed: 1}
	eng, err := vos.NewEngine(vos.EngineConfig{Sketch: cfg, Shards: 2, PositionCacheUsers: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	ref := vos.MustNew(cfg)

	preload := make([]vos.Edge, 0, 5*users)
	for i := 0; i < 5*users; i++ {
		preload = append(preload, vos.Edge{User: vos.User(i % users), Item: vos.Item(i), Op: vos.Insert})
	}
	// write i subscribes 256 users to a fresh item each and cancels the
	// subscriptions write i-1 made, so the live set stays put.
	write := func(i int) []vos.Edge {
		out := make([]vos.Edge, 0, batch)
		for j := 0; j < batch/2; j++ {
			u := vos.User((i*batch/2 + j) * 7919 % users)
			out = append(out, vos.Edge{User: u, Item: vos.Item(1<<40) + vos.Item(i), Op: vos.Insert})
			if i > 0 {
				prev := vos.User(((i-1)*batch/2 + j) * 7919 % users)
				out = append(out, vos.Edge{User: prev, Item: vos.Item(1<<40) + vos.Item(i-1), Op: vos.Delete})
			}
		}
		return out
	}
	step := func(i int) {
		if err := eng.ProcessBatch(write(i)); err != nil {
			b.Fatal(err)
		}
		eng.Flush()
		estimateSink = eng.Query(vos.User(i%users), vos.User((i+1)%users))
	}
	if err := eng.ProcessBatch(preload); err != nil {
		b.Fatal(err)
	}
	const warm = 1 // the first view's re-merge
	for i := 0; i < warm; i++ {
		step(i)
	}
	before := eng.SnapshotStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + i)
	}
	b.StopTimer()

	after := eng.SnapshotStats()
	if replays := after.Replays - before.Replays; replays != uint64(b.N) || after.Rebuilds() != before.Rebuilds() {
		b.Fatalf("%d timed reads after writes took %d replays and %d re-merges", b.N, replays, after.Rebuilds()-before.Rebuilds())
	}
	if edges := after.ReplayedEdges - before.ReplayedEdges; edges != uint64(b.N*batch) {
		b.Fatalf("%d timed %d-edge writes were replayed as %d edges, want each edge once", b.N, batch, edges)
	}
	for _, ed := range preload {
		ref.Process(ed)
	}
	for i := 0; i < warm+b.N; i++ {
		for _, ed := range write(i) {
			ref.Process(ed)
		}
	}
	got, err := eng.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		b.Fatal("engine export diverges from a single sketch over the same stream")
	}
	if last := warm + b.N - 1; estimateSink != ref.Query(vos.User(last%users), vos.User((last+1)%users)) {
		b.Fatal("last fresh Query diverges from the single-sketch estimate")
	}
	b.ReportMetric(float64(after.ReplayedEdges-before.ReplayedEdges)/float64(b.N), "replayed-edges/op")
}

// BenchmarkANNFreshProbe measures the approximate top-K read that follows
// writes, at the shape of the repository benchmark's udp-window-ann
// workload (windowed 2-shard engine, m = 2^20, k = 1600, fast family,
// 50 bands of 32 rows, 368 users, position cache off): two 256-edge
// ProcessBatches, Flush, then one TopKApprox. The probe has to bring the
// band index up to the view first; as a reader of the shard journals that
// is one stored band bit toggled and its band re-keyed per edge of the 512
// that lands in the banded bits — so the benchmark fails if a timed probe
// re-banded a user whole or fell back to the spill set, and unless the last
// answer is the one an index built from scratch on the same stream gives.
func BenchmarkANNFreshProbe(b *testing.B) {
	const users, mates, common, private, light, batch, topN = 368, 12, 392, 8, 16, 256, 10
	newEngine := func() *vos.Engine {
		eng, err := vos.NewEngine(vos.EngineConfig{
			Sketch: vos.Config{MemoryBits: 1 << 20, SketchBits: 1600, Seed: 1, Family: vos.FamilyFast},
			Shards: 2, PositionCacheUsers: -1,
			// A pinned clock: no rotation, and both engines bucket alike.
			Window: &vos.WindowConfig{Buckets: 4, BucketDuration: time.Hour, Now: func() time.Time { return time.Unix(1_000_000, 0) }},
			ANN:    &vos.ANNConfig{Bands: 50, Rows: 32},
		})
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	eng := newEngine()
	defer eng.Close()

	// Users 0..11 are one cluster (392 common items, 8 private: J = 0.96)
	// and the probes; everyone else holds 16 items of their own. The array
	// stays sparse (β ≈ 0.01), so that the mates collide whichever way the
	// index was built and the two answers can be required to be equal.
	var preload []vos.Edge
	for u := 0; u < users; u++ {
		n := light
		if u < mates {
			n = common + private
		}
		for j := 0; j < n; j++ {
			item := vos.Item(u<<16 + j)
			if u < mates && j < common {
				item = vos.Item(1<<32) + vos.Item(j)
			}
			preload = append(preload, vos.Edge{User: vos.User(u), Item: item, Op: vos.Insert})
		}
	}
	// write i subscribes 128 users to a fresh item each and cancels the
	// subscriptions write i-1 made, so the live set stays put and no user
	// joins or leaves the index.
	write := func(i int) []vos.Edge {
		out := make([]vos.Edge, 0, batch)
		for j := 0; j < batch/2; j++ {
			out = append(out, vos.Edge{User: vos.User((i*batch/2 + j) * 7919 % users), Item: vos.Item(1<<40) + vos.Item(i), Op: vos.Insert})
			if i > 0 {
				out = append(out, vos.Edge{User: vos.User(((i-1)*batch/2 + j) * 7919 % users), Item: vos.Item(1<<40) + vos.Item(i-1), Op: vos.Delete})
			}
		}
		return out
	}
	var last []vos.TopKResult
	step := func(e *vos.Engine, i int) {
		for _, w := range []int{2 * i, 2*i + 1} {
			if err := e.ProcessBatch(write(w)); err != nil {
				b.Fatal(err)
			}
		}
		e.Flush()
		var err error
		if last, err = e.TopKApprox(vos.User(i%mates), topN); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.ProcessBatch(preload); err != nil {
		b.Fatal(err)
	}
	const warm = 2 // the initial build, and one re-merge per resident view
	for i := 0; i < warm; i++ {
		step(eng, i)
	}
	before, _ := eng.ANNStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(eng, warm+i)
	}
	b.StopTimer()

	after, _ := eng.ANNStats()
	rekeys := after.BandRekeys - before.BandRekeys
	if rekeys == 0 || after.Rebands != before.Rebands || after.Removals != before.Removals || after.Rotations != before.Rotations ||
		after.JournalFallbacks != before.JournalFallbacks || after.SpilledUsers != before.SpilledUsers || after.DirtyBacklog != 0 {
		b.Fatalf("%d timed probes were not served by band re-keys alone: %+v, then %+v", b.N, before, after)
	}
	fresh := newEngine()
	defer fresh.Close()
	if err := fresh.ProcessBatch(preload); err != nil {
		b.Fatal(err)
	}
	for w := 0; w < 2*(warm+b.N); w++ {
		if err := fresh.ProcessBatch(write(w)); err != nil {
			b.Fatal(err)
		}
	}
	fresh.Flush()
	want, err := fresh.TopKApprox(vos.User((warm+b.N-1)%mates), topN)
	if err != nil {
		b.Fatal(err)
	}
	if len(last) != topN || fmt.Sprint(last) != fmt.Sprint(want) {
		b.Fatalf("maintained index answers %v, an index built from scratch %v", last, want)
	}
	b.ReportMetric(float64(rekeys)/float64(b.N), "band-rekeys/op")
}

// BenchmarkGatewayFreshQuery is BenchmarkEngineFreshQuery one tier up, at
// the shape of the repository benchmark's cluster-gather workload: a
// gateway over K = 2 one-shard loopback backends (m = 2^21, k = 6400, 20k
// live users), one 256-edge Ingest, then a pair read. The read has to bring
// the gateway's merged view current first; the backends acknowledged each
// forward with where its edges landed, so that is a replay of the last
// write from the gateway's own log, with no backend asked — not two round
// trips for the backends' journal suffixes, nor two full exports decoded and
// merged. After the loop the gateway's export must be byte-identical to a
// single sketch fed the same stream, and every timed refresh must have
// replayed without asking a backend.
func BenchmarkGatewayFreshQuery(b *testing.B) {
	const users, batch, backends = 20_000, 256, 2
	ctx := context.Background()
	cfg := vos.Config{MemoryBits: 1 << 21, SketchBits: 6400, Seed: 1}
	urls := make([]string, backends)
	for i := range urls {
		eng, err := vos.NewEngine(vos.EngineConfig{Sketch: cfg, Shards: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
		defer ts.Close()
		urls[i] = ts.URL
	}
	gw, err := cluster.New(&cluster.Ring{Version: 1, RouteSeed: 7, Shards: urls},
		cluster.Options{Client: client.Options{BatchSize: 8192, MaxRetries: -1}})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	ref := vos.MustNew(cfg)

	preload := make([]vos.Edge, 0, 5*users)
	for i := 0; i < 5*users; i++ {
		preload = append(preload, vos.Edge{User: vos.User(i % users), Item: vos.Item(i), Op: vos.Insert})
	}
	// As in BenchmarkEngineFreshQuery: write i subscribes 256 users to a
	// fresh item each and cancels the subscriptions write i-1 made.
	write := func(i int) []vos.Edge {
		out := make([]vos.Edge, 0, batch)
		for j := 0; j < batch/2; j++ {
			u := vos.User((i*batch/2 + j) * 7919 % users)
			out = append(out, vos.Edge{User: u, Item: vos.Item(1<<40) + vos.Item(i), Op: vos.Insert})
			if i > 0 {
				prev := vos.User(((i-1)*batch/2 + j) * 7919 % users)
				out = append(out, vos.Edge{User: prev, Item: vos.Item(1<<40) + vos.Item(i-1), Op: vos.Delete})
			}
		}
		return out
	}
	step := func(i int) {
		if err := gw.Ingest(ctx, write(i)); err != nil {
			b.Fatal(err)
		}
		est, err := gw.Similarity(ctx, vos.User(i%users), vos.User((i+1)%users))
		if err != nil {
			b.Fatal(err)
		}
		estimateSink = est
	}
	for at := 0; at < len(preload); at += 8192 {
		if err := gw.Ingest(ctx, preload[at:min(at+8192, len(preload))]); err != nil {
			b.Fatal(err)
		}
	}
	const warm = 1 // the first view's full gather
	for i := 0; i < warm; i++ {
		step(i)
	}
	before := gw.SnapshotStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + i)
	}
	b.StopTimer()

	after := gw.SnapshotStats()
	if replays, local := after.Replays-before.Replays, after.LocalReplays-before.LocalReplays; replays != uint64(b.N) || local != replays || after.Rebuilds() != before.Rebuilds() {
		b.Fatalf("%d timed reads after writes took %d replays (%d asking no backend) and %d full gathers", b.N, replays, local, after.Rebuilds()-before.Rebuilds())
	}
	b.ReportMetric(float64(after.GatheredBytes-before.GatheredBytes)/float64(b.N), "gathered-B/op")
	for _, ed := range preload {
		ref.Process(ed)
	}
	for i := 0; i < warm+b.N; i++ {
		for _, ed := range write(i) {
			ref.Process(ed)
		}
	}
	got, err := gw.ExportSketch(ctx)
	if err != nil {
		b.Fatal(err)
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		b.Fatal("gateway export diverges from a single sketch over the same stream")
	}
}

// BenchmarkQueryCost measures the O(k) pair-query cost of VOS at the
// paper's accuracy configuration (k = 6400 virtual bits), the counterpart
// to the O(1) update cost of Figure 2.
func BenchmarkQueryCost(b *testing.B) {
	sk := vos.MustNew(vos.Config{MemoryBits: 1 << 24, SketchBits: 6400, Seed: 1})
	for i := 0; i < 500; i++ {
		sk.Process(vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Insert})
		sk.Process(vos.Edge{User: 2, Item: vos.Item(i + 250), Op: vos.Insert})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimateSink = sk.Query(1, 2)
	}
}

// estimateSink keeps query results live so the inliner cannot delete the
// measured work.
var estimateSink vos.Estimate

// querySketch builds the paper-scale read-path fixture: m = 2^24, k =
// 6400, a probe user (1) plus 1000 candidate users (2..1001) with planted
// subscriptions, the top-N-of-1000 shape the materialized path is built
// for.
func querySketch(b *testing.B) (*vos.Sketch, []vos.User) {
	b.Helper()
	sk := vos.MustNew(vos.Config{MemoryBits: 1 << 24, SketchBits: 6400, Seed: 1})
	for i := 0; i < 500; i++ {
		sk.Process(vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Insert})
	}
	candidates := make([]vos.User, 1000)
	for c := 0; c < 1000; c++ {
		u := vos.User(c + 2)
		candidates[c] = u
		for i := 0; i < 20; i++ {
			// Overlap the probe's item range so Jaccard varies by candidate.
			sk.Process(vos.Edge{User: u, Item: vos.Item(c + i*30), Op: vos.Insert})
		}
	}
	return sk, candidates
}

// BenchmarkQueryPair compares one pair query on the three read paths: the
// scalar per-bit baseline (2k seeded hashes + 2k single-bit probes), the
// uncached materialized path (batched hashing, packed gather, word-level
// XOR/popcount), and the warm materialized path (position tables and
// packed recovered sketches cached, so a repeat pair comparison on a
// quiescent sketch is ~k/64 word operations). All three return
// bit-identical estimates (TestQueryParityPerBitVsMaterialized).
func BenchmarkQueryPair(b *testing.B) {
	sk, _ := querySketch(b)
	b.Run("perbit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			estimateSink = sk.QueryPerBit(1, 2)
		}
	})
	b.Run("materialized-nocache", func(b *testing.B) {
		sk.SetPositionCache(nil)
		sk.SetRecoveredCacheCapacity(-1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			estimateSink = sk.Query(1, 2)
		}
	})
	b.Run("materialized-warm", func(b *testing.B) {
		sk.SetPositionCache(poscache.New(16))
		sk.SetRecoveredCacheCapacity(0) // default
		sk.Query(1, 2)                  // warm both caches
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			estimateSink = sk.Query(1, 2)
		}
		sk.SetPositionCache(nil)
	})
}

// topKSink keeps top-K results live.
var topKSink []vos.TopKResult

// BenchmarkTopK measures the issue's headline workload — top 10 of 1000
// candidates at the paper-scale configuration — on the per-bit baseline
// (per-pair scalar queries plus a full sort, the pre-materialization
// TopSimilar shape), the sequential materialized heap (cold and warm
// position cache), and the engine over its merged snapshot; then the
// fan-out rule at embed-churn's shape (the fresh/ cases). All paths return
// identical rankings and estimates.
func BenchmarkTopK(b *testing.B) {
	sk, candidates := querySketch(b)
	const n = 10
	b.Run("perbit-sort-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ests := make([]vos.Estimate, len(candidates))
			for c, w := range candidates {
				ests[c] = sk.QueryPerBit(1, w)
			}
			idx := make([]int, len(candidates))
			for c := range idx {
				idx[c] = c
			}
			sort.Slice(idx, func(x, y int) bool {
				if ests[idx[x]].Jaccard != ests[idx[y]].Jaccard {
					return ests[idx[x]].Jaccard > ests[idx[y]].Jaccard
				}
				return candidates[idx[x]] < candidates[idx[y]]
			})
			topKSink = topKSink[:0]
			for _, c := range idx[:n] {
				topKSink = append(topKSink, vos.TopKResult{User: candidates[c], Estimate: ests[c]})
			}
		}
	})
	b.Run("materialized-nocache", func(b *testing.B) {
		sk.SetPositionCache(nil)
		sk.SetRecoveredCacheCapacity(-1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			topKSink = sk.TopK(1, candidates, n)
		}
	})
	b.Run("materialized-warm", func(b *testing.B) {
		sk.SetPositionCache(poscache.New(1024 + 1))
		sk.SetRecoveredCacheCapacity(0)
		sk.TopK(1, candidates, n) // warm both caches
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			topKSink = sk.TopK(1, candidates, n)
		}
		sk.SetPositionCache(nil)
	})
	b.Run("engine", func(b *testing.B) {
		eng := vos.MustNewEngine(vos.EngineConfig{
			Sketch:             vos.Config{MemoryBits: 1 << 24, SketchBits: 6400, Seed: 1},
			Shards:             2,
			PositionCacheUsers: 1024 + 1,
		})
		defer eng.Close()
		for i := 0; i < 500; i++ {
			if err := eng.Process(vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Insert}); err != nil {
				b.Fatal(err)
			}
		}
		for c := 0; c < 1000; c++ {
			for i := 0; i < 20; i++ {
				if err := eng.Process(vos.Edge{User: vos.User(c + 2), Item: vos.Item(c + i*30), Op: vos.Insert}); err != nil {
					b.Fatal(err)
				}
			}
		}
		eng.Flush()
		eng.TopK(1, candidates, n) // build the snapshot and warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			topKSink = eng.TopK(1, candidates, n)
		}
	})
	// The fan-out rule at embed-churn's shape: m = 2^21, k = 6400, no
	// position cache. A cold case writes one edge before every call, so the
	// recovered-sketch cache misses on every candidate; a warm case serves
	// every candidate from it. Run with -cpu 1,2: the helper joins cold-64,
	// where each participant is owed over 100 µs, and leaves cold-16 (too
	// little work) and both warm cases (cache hits, which a second core
	// only contends for) to the caller.
	fresh := vos.MustNew(vos.Config{MemoryBits: 1 << 21, SketchBits: 6400, Seed: 1})
	for u := vos.User(1); u <= 1001; u++ {
		for i := 0; i < 40; i++ {
			fresh.Process(vos.Edge{User: u, Item: vos.Item(int(u)*7 + i*13), Op: vos.Insert})
		}
	}
	for _, c := range []struct {
		name string
		cold bool
		size int
	}{{"cold-16", true, 16}, {"cold-64", true, 64}, {"warm-64", false, 64}, {"warm-1000", false, 1000}} {
		b.Run("fresh/"+c.name, func(b *testing.B) {
			cands := candidates[:c.size]
			fresh.TopK(1, cands, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.cold {
					// User 0 is no candidate: inserting and deleting one
					// of its edges in turn moves the write version and
					// leaves the array as it was every second call.
					op := vos.Insert
					if i%2 == 1 {
						op = vos.Delete
					}
					fresh.Process(vos.Edge{User: 0, Item: 1, Op: op})
				}
				topKSink = fresh.TopK(1, cands, n)
			}
		})
	}
}

// wireFixture starts an engine-backed /v1/ server on a loopback httptest
// listener with a client over it — the fixture for the serving benchmarks,
// which measure the HTTP+JSON/binary wire overhead on top of the
// in-process paths benchmarked above.
func wireFixture(b *testing.B, cfg vos.EngineConfig, clOpts client.Options) (*vos.Engine, *client.Client, func()) {
	b.Helper()
	eng, err := vos.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	cl := client.New(ts.URL, clOpts)
	return eng, cl, func() {
		cl.Close()
		ts.Close()
		eng.Close()
	}
}

// BenchmarkServerIngest measures acknowledged ingest through the full wire
// path — client binary batching → HTTP → server decode → engine — in
// ns/edge, the number to put beside BenchmarkEngineIngest's in-process
// cost. One iteration ships one batch synchronously (the client's linger
// ticker is disabled so batch boundaries are deterministic). "memory" is a
// memory-only engine taking 512-edge batches; "durable" is http-durable's
// shape — the paper configuration for 640 users on 2 shards behind a WAL
// that is not fsynced, 1,024-edge requests — where the log writes each
// body's own bytes as its record (Engine.ProcessBatchSpan).
func BenchmarkServerIngest(b *testing.B) {
	b.Run("memory", func(b *testing.B) {
		serverIngest(b, 512, 997, vos.EngineConfig{
			Sketch: vos.Config{MemoryBits: 1 << 24, SketchBits: 6400, Seed: 1},
			Shards: 2,
		})
	})
	b.Run("durable", func(b *testing.B) {
		serverIngest(b, 1024, 640, vos.EngineConfig{
			Sketch:     vos.PaperConfig(640, 100, 2, 1),
			Shards:     2,
			Durability: &vos.DurabilityConfig{Dir: b.TempDir(), Sync: vos.SyncOff},
		})
	})
}

// serverIngest is one BenchmarkServerIngest case: b.N requests of batch
// edges over users distinct users, each (user, item) pair new.
func serverIngest(b *testing.B, batch, users int, cfg vos.EngineConfig) {
	_, cl, cleanup := wireFixture(b, cfg, client.Options{BatchSize: batch, Linger: -1})
	defer cleanup()
	ctx := context.Background()
	edges := make([]vos.Edge, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range edges {
			edges[j] = vos.Edge{
				User: vos.User(j % users),
				Item: vos.Item(i*batch + j),
				Op:   vos.Insert,
			}
		}
		if err := cl.Ingest(ctx, edges); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/edge")
}

// readFixture is wireFixture over an engine holding user 1 (500 items) and
// 1000 candidates (users 2…1001, 20 items each), flushed, with the snapshot
// built and the caches warm: what the serving read benchmarks measure on top
// of is wire cost (JSON encode/decode + HTTP round trip), not sketch work.
func readFixture(b *testing.B) (eng *vos.Engine, cl *client.Client, candidates []vos.User, cleanup func()) {
	eng, cl, cleanup = wireFixture(b, vos.EngineConfig{
		Sketch:             vos.Config{MemoryBits: 1 << 24, SketchBits: 6400, Seed: 1},
		Shards:             2,
		PositionCacheUsers: 1024 + 1,
	}, client.Options{Linger: -1})
	ctx := context.Background()
	var edges []vos.Edge
	for i := 0; i < 500; i++ {
		edges = append(edges, vos.Edge{User: 1, Item: vos.Item(i), Op: vos.Insert})
	}
	candidates = make([]vos.User, 1000)
	for c := 0; c < 1000; c++ {
		candidates[c] = vos.User(c + 2)
		for i := 0; i < 20; i++ {
			edges = append(edges, vos.Edge{User: vos.User(c + 2), Item: vos.Item(c + i*30), Op: vos.Insert})
		}
	}
	if err := cl.Ingest(ctx, edges); err != nil {
		b.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	eng.TopK(1, candidates, 10) // build the snapshot, warm the caches
	return eng, cl, candidates, cleanup
}

// BenchmarkClientTopK measures the issue's headline query — top 10 of 1000
// candidates at paper scale — through client→server→engine over loopback,
// the remote counterpart of BenchmarkTopK/engine, and the top 10 of 16 the
// repository benchmark's http-durable workload reads, where the sketch work
// is small and the two JSON bodies are most of what is left. The engine
// lines are the same reads in process: what the wire lines pay on top.
func BenchmarkClientTopK(b *testing.B) {
	eng, cl, candidates, cleanup := readFixture(b)
	defer cleanup()
	ctx := context.Background()
	for _, n := range []int{1000, 16} {
		b.Run(fmt.Sprintf("candidates=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				top, err := cl.TopK(ctx, 1, candidates[:n], 10)
				if err != nil {
					b.Fatal(err)
				}
				topKSink = top
			}
		})
		b.Run(fmt.Sprintf("candidates=%d/engine", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topKSink = eng.TopK(1, candidates[:n], 10)
			}
		})
	}
}

// BenchmarkClientSimilarity is the pair read over the same fixture: one GET,
// one estimate back.
func BenchmarkClientSimilarity(b *testing.B) {
	eng, cl, _, cleanup := readFixture(b)
	defer cleanup()
	ctx := context.Background()
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			est, err := cl.Similarity(ctx, 1, vos.User(2+i%1000))
			if err != nil {
				b.Fatal(err)
			}
			estimateSink = est
		}
	})
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			estimateSink = eng.Query(1, vos.User(2+i%1000))
		}
	})
}
