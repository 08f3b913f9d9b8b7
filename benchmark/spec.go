package main

import (
	"time"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/engine"
	"github.com/vossketch/vos/internal/hashing"
)

// Sizes shared by every workload. They are frozen: the work a run does is
// set by these constants and by -seconds, never by how fast the code under
// test is, so two commits are always compared on the same work.
//
// Every size below follows one rule: what the timed phases touch stays in
// this machine's per-core L2 (2 MiB). The machine is a 2-vCPU guest whose
// shared L3 and memory belong to its neighbours as much as to it: random
// reads over 256 KiB repeat from one 2 s window to the next within 0.4 to
// 3%, over 8 MiB within 8 to 66% (README, "Why everything is cache-sized").
// A benchmark at the paper's array sizes measures the neighbours. What the
// neighbours do to the cores themselves is taken out by the host factor
// (host.go).
const (
	// defaultSeconds is BENCHMARK.json's run_seconds: what the measured
	// rounds were calibrated to take on the machine the sizes were frozen
	// on. -seconds scales the number of rounds and nothing else.
	defaultSeconds = 20
	// roundsAtDefault is how many rounds a run of defaultSeconds makes. A
	// round is one slice of each measured phase: A ingest, B quiet reads,
	// C fresh reads, about half a second together. Every timing is taken
	// per round, scaled by the host factor of its slice, and reported as
	// the median over the rounds (see overRounds); interleaving the phases
	// spreads every metric over the whole run, and all metrics see the same
	// weather.
	roundsAtDefault = 40
	// minRounds is the fewest rounds -seconds can scale a run down to.
	minRounds = 2
	// roundsWallCap is a safety valve, not a budget: the driver allots a
	// run a fixed time, so a run whose rounds have already taken this many
	// times -seconds stops at the rounds it has and says so. On the machine
	// the sizes were frozen on, forty rounds take 0.8 to 1.0 times -seconds,
	// and what a round does is the same whether the valve closes or not.
	roundsWallCap = 1.2

	// setupRepeats is how many times a run builds its stack from scratch;
	// setup_s is the median.
	setupRepeats = 7
	// warmReads is the number of untimed reads in setup and before each
	// round's quiet reads.
	warmReads = 200
	// freshWriteEdges is the write that precedes every phase-C read.
	freshWriteEdges = 256
	// topN is the K of every top-K read.
	topN = 10
	// simPerTopK is how many quiet pair reads go with one quiet top-K read.
	simPerTopK = 5
	// quietSimPerRound is the timed quiet reads of one round: that many
	// pair reads with one top-K read after every simPerTopK of them. The
	// fresh reads of a round are the workload's (a fresh read costs 0.2 ms
	// on one workload and 6 ms on another): 32 to 64 of each kind. Over
	// roundsAtDefault rounds that is 60000 quiet pair reads, 12000 quiet
	// top-K reads and 1600 to 2560 fresh reads of each kind. p95 is the
	// highest percentile reported (beside the metrics, see setLatencies): a
	// round's p95 has 75 and 15 quiet samples beyond it and 2 or 3 fresh
	// ones.
	quietSimPerRound = 1500
	// quietReadsPerGC and freshWritesPerGC are how often phases B and C
	// collect garbage between two timed reads. A collection started by
	// the pacer runs concurrently with whatever read comes next and slows
	// it, which puts p95 on the edge between the undisturbed reads and the
	// disturbed ones. Collecting at fixed points, often enough that the
	// heap never reaches the pacer's goal, keeps every timed read on the
	// undisturbed side. What garbage costs shows in ingest_edges_per_s
	// (phase A is left to the pacer) and in rss_mb.
	quietReadsPerGC  = 256
	freshWritesPerGC = 8
	// gateSamples is how many answers phase D compares with the oracle.
	gateSamples = 64
	// sketchSeed seeds every sketch. The program under test receives only
	// generated inputs, so -seed never reaches a sketch configuration.
	sketchSeed = 0x1CDE2019
	// paperK32 and paperLambda are the paper's section V configuration:
	// k = lambda*32*k32 = 6400 bits and m = 32*k32 bits per user.
	paperK32    = 100
	paperLambda = 2
	// cacheOff turns the engine's position-table cache off. A table is
	// 50 KiB at k = 6400, so a read that misses the cache allocates and
	// fills two of them and one that hits streams them back in: either way
	// the read is as fast as the L3 is that second. Where the workload is
	// not about that cache it is off, and a read runs the hash and gather
	// kernels over the L2-resident array.
	cacheOff = -1
)

// Stack kinds.
const (
	stackEmbed   = "embed"
	stackHTTP    = "http"
	stackUDP     = "udp"
	stackCluster = "cluster"
)

// workloadSpec is one workload: its stream, its sketch, and the stack that
// serves it.
type workloadSpec struct {
	name, why string
	stack     string
	stream    streamSpec
	sketch    core.Config
	// shards is the engine's shard count (per backend on the cluster).
	shards int
	// ingestBatch is the edges per phase-A ingest call; wireBatch the edges
	// per client request or datagram where a client sits in between.
	ingestBatch, wireBatch int
	// hotUsers is the size of the read-key population, chosen against the
	// 4096-entry recovered-sketch cache of a snapshot: four times it (every
	// pair read recovers two cold sketches) or far below it and below the
	// position cache too (every read is served from the caches, and the
	// tables of all the read keys together fit the L2).
	// candidates is the length of the fixed top-K candidate list (0:
	// candidates-free ANN).
	hotUsers, candidates int
	// posCache is the engine's PositionCacheUsers: 0 for its default of
	// 512 tables, cacheOff for none.
	posCache int
	// ann configures the approximate index of the udp stack.
	ann *engine.ANNConfig
	// bucket is the window's bucket duration on the injected stream clock.
	bucket time.Duration
	// The work of one round (the tests lower all of it): unitsPerRound
	// ingest units, a unit being the stretch of the churn cycle from one
	// parity point to the next with its closing sync; quietSims timed pair
	// reads with a top-K read after every simPerTopK of them; freshReads
	// fresh reads of each kind. rounds is the round count at
	// defaultSeconds.
	rounds, unitsPerRound, quietSims, freshReads int
	// rmseCeiling is the phase-D gate on est_rmse.
	rmseCeiling float64
	// timingGates holds a traced run to the generator taking under 5% of
	// phase A. The tests turn it off: at their scale a call takes
	// microseconds and the ratio measures the timer.
	timingGates bool
}

// embed-churn sizes. The sketch is the library's default family over an
// array of 2^21 bits: 256 KiB per shard, so the two shard arrays and the
// merged snapshot a fresh read builds are 768 KiB together. The position
// cache is off and the read keys are four times the recovered-sketch
// cache, so every pair read hashes and gathers two sketches of 6400 bits.
const (
	embedUsers       = 20_000
	embedItems       = 1 << 16
	embedMemoryBits  = 1 << 21
	embedBaseEdges   = 1_000_000
	embedBlockEdges  = 16 * 1024
	embedBatch       = 4096
	embedUnits       = 60    // a unit is one forward/inverse pass, 34k edges
	embedHotUsers    = 16384 // four times the recovered-sketch cache
	embedCandidates  = 64
	embedClusters    = 48
	embedMembers     = 8
	embedClusterSize = 200
	embedExtras      = 50
	embedFresh       = 48
)

// http-durable sizes: the paper configuration for 640 users (m = 2M bits,
// 250 KiB per shard) behind the HTTP plane and the WAL. The position cache
// is on and the read keys are few: their 24 tables (1.2 MiB) stay in the
// L2 with the array, and a top-K read streams 17 of them.
const (
	httpUsers       = 640
	httpItems       = 1 << 16
	httpBaseEdges   = 600_000
	httpBlockEdges  = 16 * 1024
	httpBatch       = 1024
	httpUnits       = 24 // passes of 34k edges
	httpHotUsers    = 24 // fits every cache
	httpCandidates  = 16
	httpClusters    = 32
	httpMembers     = 8
	httpClusterSize = 300
	httpExtras      = 75
	httpFresh       = 64
)

// udp-window-ann sizes: four one-epoch buckets of heavy planted clusters
// over a light background, the fast hash family and the banded index. The
// paper configuration for 320 users is 1M bits, 125 KiB an array, so the
// eight arrays of the ring (2 shards x 4 buckets) are 1 MiB. The banded
// index wants a sparse array (two users' sketches must agree on all 40
// bits of some band, and every stray bit of the shared array costs a band),
// which at this size means few planted users: 4 clusters of 12.
const (
	udpUsers       = 320
	udpItems       = 1 << 14
	udpEpochEdges  = 64 * 1024
	udpEpochs      = 4
	udpBatch       = 4096
	udpUnits       = 16 // epochs: four turns of the window
	udpFrameEdges  = 256
	udpHotUsers    = udpUsers + udpClusters*udpMembers
	udpClusters    = 4
	udpMembers     = 12
	udpClusterSize = 100 // per epoch: 400 over the window
	udpExtras      = 10
	udpMemoryBits  = 1 << 20
	udpSketchBits  = 1600
	udpBands       = 50
	udpRows        = 32
	udpFresh       = 48
)

// cluster-gather sizes: the paper configuration for 640 users split over
// two one-shard backends behind the gateway, so a gather exports, moves
// and merges two arrays of 250 KiB. The gateway's position cache cannot be
// turned off, so the read keys are few, as on http-durable.
const (
	clusterUsers       = 640
	clusterItems       = 1 << 16
	clusterBackends    = 2
	clusterBaseEdges   = 600_000
	clusterBlockEdges  = 16 * 1024
	clusterBatch       = 1024
	clusterUnits       = 16 // passes of 34k edges
	clusterHotUsers    = 24
	clusterCandidates  = 16
	clusterClusters    = 32
	clusterMembers     = 8
	clusterClusterSize = 300
	clusterExtras      = 75
	clusterFresh       = 40
)

// zipfS and zipfV shape user popularity on every workload: P(rank r) is
// proportional to (zipfV + r)^-zipfS, a 1.6 tail whose head is flattened so
// that the busiest user carries about 7% of the stream, not 44%.
//
// deleteShare is the share of background elements that unsubscribe. It is
// high: the arrays are small (see above), so a preload long enough to time
// as setup_s has to take back most of what it puts in. Of a million-edge
// preload about an eighth is still subscribed at its end; the rest is the
// history of a fully dynamic stream, which is what the sketch is for.
// udpDeleteShare is higher still, because the banded index needs the
// sparser array.
const (
	zipfS          = 1.6
	zipfV          = 8
	deleteShare    = 0.45
	udpDeleteShare = 0.48
)

// jaccardLadder spreads planted within-cluster Jaccard over the range the
// estimator is used on.
var jaccardLadder = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

func workloads() []workloadSpec {
	sized := func(w workloadSpec) workloadSpec {
		w.rounds, w.quietSims = roundsAtDefault, quietSimPerRound
		w.timingGates = true
		return w
	}
	return []workloadSpec{
		sized(workloadSpec{
			name:  "embed-churn",
			why:   "in-process engine, position cache off, read keys that miss the sketch cache: core, hashing, bitset and engine do all the work; wal, server, client, netproto, cluster and lsh do none",
			stack: stackEmbed,
			stream: streamSpec{
				users: embedUsers, zipfS: zipfS, zipfV: zipfV, items: embedItems,
				baseEdges: embedBaseEdges, deleteShare: deleteShare, blockEdges: embedBlockEdges,
				clusters: embedClusters, members: embedMembers, clusterSize: embedClusterSize, extras: embedExtras,
				jaccards: jaccardLadder,
			},
			sketch:      core.Config{MemoryBits: embedMemoryBits, SketchBits: paperLambda * 32 * paperK32, Seed: sketchSeed},
			shards:      2,
			ingestBatch: embedBatch, unitsPerRound: embedUnits,
			freshReads:  embedFresh,
			hotUsers:    embedHotUsers,
			candidates:  embedCandidates,
			posCache:    cacheOff,
			rmseCeiling: 0.12,
		}),
		sized(workloadSpec{
			name:  "http-durable",
			why:   "client encode, HTTP wire, server decode, admission and the WAL append (not fsynced) dominate ingest, core is a small share and read keys fit every cache: kernel changes predict no move here",
			stack: stackHTTP,
			stream: streamSpec{
				users: httpUsers, zipfS: zipfS, zipfV: zipfV, items: httpItems,
				baseEdges: httpBaseEdges, deleteShare: deleteShare, blockEdges: httpBlockEdges,
				clusters: httpClusters, members: httpMembers, clusterSize: httpClusterSize, extras: httpExtras,
				jaccards: jaccardLadder,
			},
			sketch:      core.PaperConfig(httpUsers, paperK32, paperLambda, sketchSeed),
			shards:      2,
			ingestBatch: httpBatch, unitsPerRound: httpUnits,
			freshReads:  httpFresh,
			wireBatch:   httpBatch,
			hotUsers:    httpHotUsers,
			candidates:  httpCandidates,
			rmseCeiling: 0.07,
		}),
		sized(workloadSpec{
			name:  "udp-window-ann",
			why:   "the only workload on the datagram plane, bucket rotation, the fast hash family and the banded top-K index: epochs rotate the window exactly at their boundaries",
			stack: stackUDP,
			stream: streamSpec{
				users: udpUsers, zipfS: zipfS, zipfV: zipfV, items: udpItems,
				baseEdges: udpEpochEdges, deleteShare: udpDeleteShare,
				clusters: udpClusters, members: udpMembers, clusterSize: udpClusterSize, extras: udpExtras,
				jaccards: []float64{0.95},
				epochs:   udpEpochs,
			},
			sketch:      core.Config{MemoryBits: udpMemoryBits, SketchBits: udpSketchBits, Seed: sketchSeed, Family: hashing.KindFast},
			shards:      2,
			ingestBatch: udpBatch, unitsPerRound: udpUnits,
			freshReads:  udpFresh,
			wireBatch:   udpFrameEdges,
			hotUsers:    udpHotUsers,
			posCache:    cacheOff,
			ann:         &engine.ANNConfig{Bands: udpBands, Rows: udpRows},
			bucket:      time.Hour,
			rmseCeiling: 0.05,
		}),
		sized(workloadSpec{
			name:  "cluster-gather",
			why:   "gateway fan-out and full-sketch gathers own the time: the workload the gateway-scaling work is judged on, where embed-churn predicts no change",
			stack: stackCluster,
			stream: streamSpec{
				users: clusterUsers, zipfS: zipfS, zipfV: zipfV, items: clusterItems,
				baseEdges: clusterBaseEdges, deleteShare: deleteShare, blockEdges: clusterBlockEdges,
				clusters: clusterClusters, members: clusterMembers, clusterSize: clusterClusterSize, extras: clusterExtras,
				jaccards: jaccardLadder,
			},
			sketch:      core.PaperConfig(clusterUsers, paperK32, paperLambda, sketchSeed),
			shards:      1,
			ingestBatch: clusterBatch, unitsPerRound: clusterUnits,
			freshReads:  clusterFresh,
			wireBatch:   clusterBatch,
			hotUsers:    clusterHotUsers,
			candidates:  clusterCandidates,
			rmseCeiling: 0.07,
		}),
	}
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDecl declares one reported metric.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	// Bound is the relative worsening that counts as a regression; 0 for
	// per-layer metrics, which have none.
	Bound float64
	// Moves says, for a per-layer metric, which end-to-end metric it should
	// move and where.
	Moves string
}

// endToEnd is the same on every workload. Every time and the rate are
// scaled by the host factor (host.go).
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_edges_per_s", Unit: "edges/s", Better: "higher", Bound: 0.25},
	{Name: "sim_quiet_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "topk_quiet_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_fresh_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "topk_fresh_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "est_rmse", Unit: "jaccard", Better: "lower", Bound: 0.2},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}
