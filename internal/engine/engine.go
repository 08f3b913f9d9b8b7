// Package engine implements the sharded, pipelined ingestion engine that
// scales VOS ingest across cores. It exists because VOS state is pure
// parity: the shared bit array of a stream equals the XOR of the arrays of
// any partition of that stream and the cardinality counters add, so
// core.VOS.Merge is exact for every way of splitting the input. That makes
// "one sketch per shard, merge for queries" a lossless parallelisation —
// the same partition-then-merge structure gSketch (VLDB'12) uses to
// localise stream updates — where a single mutex-guarded sketch would
// serialise every update on one lock.
//
// Topology: N independent core.VOS shards with identical Config, each owned
// by one ingest goroutine fed through a buffered channel of edge batches.
// Producers route edges with stream.ShardOf(user) — the same hook
// stream.PartitionByUser uses — buffer them into per-shard batches, and
// hand full batches to the owning worker; the worker applies a batch under
// its shard-local lock. Because a user's edges always land in the same
// shard, each shard sees a feasible sub-stream and its cardinality
// counters are exact.
//
// Queries answer from a merged global snapshot — merging is exact, so a
// post-Flush Query returns bit-identical estimates to a single Sketch that
// consumed the whole stream. The snapshot is resident and kept current by
// delta: a read that finds edges applied since the view was current
// replays the batches the shard workers applied onto it, which costs the
// churn rather than a re-merge of every shard (see snapshot.go; the full
// re-merge remains as the fallback). That
// is the only pair read path: acquire the merged view, query it, release
// it. Nothing queries a shard sketch on its own — a shard alone holds its
// users' counters and its part of the array's parity, not the global fill β.
//
// The shards are the one home of engine state. A checkpoint recovered by
// Open and a sketch handed to ImportSketch are folded into them (fold,
// durability.go) — parity is linear, so a merged sketch splits back into
// per-shard parts exactly (core.VOS.Partition) — and nothing is kept beside
// them to be merged in at read time.
package engine

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vossketch/vos/internal/clock"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/metrics"
	"github.com/vossketch/vos/internal/poscache"
	"github.com/vossketch/vos/internal/resident"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/internal/wal"
)

// ErrClosed is returned by Process/ProcessBatch after Close, and by the
// context-aware query methods (QueryContext, TopKContext, …) once Close has
// begun — a closed engine is out of the serving rotation, so queries racing
// shutdown get a typed error instead of an answer that may predate the
// final flush.
var ErrClosed = errors.New("engine: closed")

// ErrQueryUnavailable is the sentinel for a query the serving state cannot
// answer. The engine itself never returns it — every engine read goes
// through the merged view, which always can answer — but the cluster
// gateway does (no backend reachable) and the server and client map it
// over the wire; it is declared here so all tiers share one value.
var ErrQueryUnavailable = errors.New("engine: query unavailable")

// Config parameterises an Engine. The zero value of every field except
// Sketch selects a sensible default.
type Config struct {
	// Sketch is the per-shard VOS configuration. Every shard gets an
	// identical copy, which is what makes the shards mergeable.
	Sketch core.Config

	// Shards is N, the number of independent sketch shards and ingest
	// goroutines. Default: runtime.GOMAXPROCS(0).
	Shards int

	// BatchSize is how many edges a shard's pending batch holds before it is
	// handed to the shard worker, and the unit the worker applies under one
	// lock acquisition (and journals as one entry). Every queued batch has
	// exactly this many edges, whatever the size of the ProcessBatch calls;
	// only Flush, Close and the linger hand over a shorter residue.
	// Default: 256.
	BatchSize int

	// Clock is the engine's time: the linger hands partial batches to the
	// workers every 50ms of it, the window rotates on it (unless Window.Now
	// is set) and ShardStats' rates divide by it. Default: clock.Wall; a
	// clock.Manual never advanced stops the linger.
	Clock clock.Clock

	// PositionCacheUsers bounds the engine's shared position-table cache:
	// the materialized query path caches each user's k array positions
	// (valid for the engine's lifetime — they depend only on user and
	// sketch Config, never on sketch contents), so repeat queries for hot
	// users skip all hashing. One cache is shared by every merged
	// snapshot. Each entry costs Sketch.SketchBits·8 bytes (50 KiB at the
	// paper's k = 6400). 0 selects the default of 512 entries (≈25 MiB at
	// paper scale); negative disables caching.
	PositionCacheUsers int

	// Durability, when non-nil with a Dir, enables the write-ahead log and
	// checkpointing (see durability.go): accepted edges are logged before
	// they are routed, Checkpoint persists the merged sketch, and Open
	// recovers an engine from the directory. New with Durability set
	// behaves exactly like Open.
	Durability *DurabilityConfig

	// Window, when non-nil, puts the engine in sliding-window mode: each
	// shard keeps a ring of Window.Buckets time-bucketed sub-sketches,
	// queries answer over the last Buckets·BucketDuration of stream time,
	// and older edges are retired in O(sketch) per bucket rotation (see
	// window.go). Checkpoints then persist per-bucket state so recovery
	// keeps rotating correctly; a windowed engine cannot open an
	// unwindowed checkpoint directory or vice versa.
	Window *WindowConfig

	// ANN, when non-nil, maintains a banded-LSH index over recovered
	// sketches so TopKApprox can answer candidates-free top-K probes
	// without scanning every user (see ann.go). Zero fields select
	// defaults.
	ANN *ANNConfig
}

// queueEdges is the per-shard ingest queue capacity in edges, rounded up to
// whole batches. When a shard's queue is full, Process blocks —
// backpressure, not loss.
const queueEdges = 8192

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.Clock == nil {
		c.Clock = clock.Wall
	}
	if c.PositionCacheUsers == 0 {
		c.PositionCacheUsers = 512
	}
	return c
}

// shard is one partition: a private sketch, its ingest queue, and the
// producer-side pending batch.
type shard struct {
	// pendMu guards pend, the producer-side partial batch: nil, or a batch
	// buffer (capacity BatchSize, always) that add copies callers' edges onto.
	// Batch buffers cycle: pend, full, goes to ch, the worker and the journal,
	// whose eviction (record) puts it on free, where add finds its next pend
	// and makes one only when there is none. free has room for what a full
	// queue, the pending batch and the one at the worker evict as they drain
	// with no producer taking, so a shard at rest pins its journal and at most
	// what its queue could hold.
	pendMu sync.Mutex
	pend   []stream.Edge
	free   chan []stream.Edge

	// ch carries batches to the worker goroutine: BatchSize edges each, or a
	// shorter residue from Flush, Close or the linger.
	ch chan []stream.Edge

	// skMu guards sk (and win): the worker writes under Lock, queries and
	// merges read under RLock, and a window rotation or a fold mutates under
	// Lock (always acquired after the engine's stateMu).
	skMu sync.RWMutex
	sk   *core.VOS

	// win is the shard's bucket ring in sliding-window mode (nil
	// otherwise). sk then aliases win.Merged() — the stable live view, whose
	// writes are the current bucket's — so the worker and every read path
	// work unchanged; rotation, folds and checkpoints go through win.
	win *core.Window

	// enqueued counts edges accepted by Process/ProcessBatch for this
	// shard (including edges still pending or queued); processed counts
	// edges applied to sk. enqueued is advanced inside pendMu, together with
	// the edges' arrival in pend, and a batch leaves pend for the queue in
	// the same section, so whoever holds pendMu knows that every counted edge
	// is in pend, on the queue, or applied, and that the queue applies them in
	// counting order — what lets Flush cut a target and take the residue in
	// one step. processed is advanced inside skMu, so a reader holding
	// RLock sees exactly the count reflected in sk.
	enqueued  atomic.Uint64
	processed atomic.Uint64

	// A Flush waiting for processed to reach its target parks on applied
	// (under waitMu) after counting itself into waiters; the worker, having
	// advanced processed, broadcasts only when that count is nonzero, so a
	// batch applied while nobody waits costs one atomic load.
	waitMu  sync.Mutex
	applied sync.Cond // L is &waitMu
	waiters atomic.Int32

	// journal is the ring of the newest applied batches, which the resident
	// merged views, remote readers and the approximate top-K index replay
	// from (see snapshot.go): contiguous, oldest first, covering processed
	// counts (jFrom, processed], at most Engine.journalMax edges of them — a
	// window sliding along jRing, moved back to the front at its end (record)
	// and so never regrown by full batches. jReaders counts the readers
	// between their cut and their last batch (journalRange, journalDone).
	// jMu guards all four, annSpill and annSkip; the worker appends and evicts
	// inside its skMu critical section, and jMu is never held across other
	// locks (lock order: skMu (worker) / ann.mu (probe) before jMu).
	jMu      sync.Mutex
	journal  []journalEntry
	jRing    []journalEntry
	jFrom    uint64
	jReaders int

	// annAt is the processed count up to which the approximate top-K index
	// has read this shard's journal, published by the probe that read it;
	// annSpill holds the users of batches evicted from the journal while the
	// index was still behind them, each with the processed count its last
	// such batch reached (nil on engines without Config.ANN — see ann.go).
	// annSkip is the processed count of the last batch evicted without
	// spilling, because the index owed every user a re-banding anyway: a read
	// from a cursor behind it is a whole one.
	annAt    atomic.Uint64
	annSpill map[stream.User]uint64
	annSkip  uint64
}

// Engine is the sharded ingestion engine. All methods are safe for
// concurrent use, with one lifecycle rule: no Process/ProcessBatch call
// may start after Close has begun.
type Engine struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup
	closed atomic.Bool
	// lifeMu orders producer-side channel sends against Close: processBatch
	// and Flush hold RLock across "check closed, then hand batches to shard
	// channels", and Close holds Lock while it drains the pending buffers
	// and closes those channels, after which nothing pends again (so the
	// linger, which hands over only what pends, takes no lock). Without it,
	// a Flush racing Close could send on a closed channel (panic) or park a
	// batch behind an exited worker and spin forever waiting for it to apply.
	lifeMu sync.RWMutex
	stop   chan struct{} // stops the linger
	start  time.Time
	now    func() time.Time // rotation's clock: Window.Now if set, else Clock.Now

	// views is the merged query snapshot (see snapshot.go): the resident
	// merged view and its spare, each carrying the stamp — import
	// generation, rotation count, per-shard processed counts — of the state
	// it equals.
	views          resident.Pair[stamp]
	journalMax     uint64 // per-shard journal bound in edges, fixed by the array size
	journalEvicted atomic.Uint64

	// pcache is the shared position-table cache (nil when disabled):
	// position tables depend only on user and sketch Config, so one cache
	// serves every merged view for the engine's lifetime, surviving
	// snapshot re-merges. Only the views are wired to it — nothing queries
	// a shard sketch on its own. It is internally locked, so sharing it
	// keeps concurrent query paths race-clean.
	pcache *poscache.Cache

	// Durability state (nil/zero on memory-only engines — see
	// durability.go). log is the write-ahead log; walMu gates appends
	// against checkpoints: producers hold RLock across append-then-route,
	// Checkpoint holds Lock, so no batch ever straddles a checkpoint
	// position.
	log   *wal.Log
	walMu sync.RWMutex

	// boot is drawn once per engine and opens every export cursor (see
	// delta.go): processed counts restart with the process, so a cursor
	// from another life must never compare equal.
	boot uint64

	// routeSeed seeds the user→shard hash (ShardOf).
	routeSeed uint64

	// stateMu orders the two events that change shard state without a
	// journal entry — a window rotation (window.go) and an ImportSketch
	// (transfer.go) — against multi-shard reads: AdvanceWindowTo and
	// ImportSketch hold Lock while they write every shard, and view
	// refreshes, delta exports and checkpoint building hold RLock from their
	// first shard to their last, so none ever sees shard A before the event
	// and shard B after it. Lock order: stateMu before any shard's skMu.
	// imports and winRot count the two events and stamp every reader's
	// coordinates (stamp, snapshot.go), so either retires the resident
	// views, every export cursor and the ANN index's cursor without touching
	// the views' mutex (avoiding a lock cycle with stateMu). winEnd mirrors
	// the shards' current bucket end (unix ns) for the lock-free
	// has-anything-expired check (zero on unwindowed engines).
	stateMu sync.RWMutex
	imports atomic.Uint64
	winRot  atomic.Uint64
	winEnd  atomic.Int64

	// ann is the approximate top-K state (nil without Config.ANN — see
	// ann.go).
	ann *annIndex
}

// New creates and starts an Engine. The configuration is validated the
// same way core.New validates a sketch. With Config.Durability set, New is
// Open: it recovers from the directory (or starts it fresh).
func New(cfg Config) (*Engine, error) {
	if cfg.Durability != nil && cfg.Durability.Dir != "" {
		return Open(cfg)
	}
	return newEngine(cfg.withDefaults(), nil, nil)
}

// newEngine builds a memory-only engine from a resolved config. Open passes
// the checkpoint it recovered — a flat sketch or, windowed, a bucket ring,
// either one checked against cfg (foldable) — for the shards to start from,
// and attaches the durability state afterwards.
func newEngine(cfg Config, flat *core.VOS, ring *core.Window) (*Engine, error) {
	if err := validateWindow(cfg.Window); err != nil {
		return nil, err
	}
	batches := (queueEdges + cfg.BatchSize - 1) / cfg.BatchSize
	e := &Engine{
		cfg:        cfg,
		shards:     make([]*shard, cfg.Shards),
		stop:       make(chan struct{}),
		start:      cfg.Clock.Now(),
		now:        cfg.Clock.Now,
		journalMax: cfg.Sketch.MemoryBits / 64 / journalWordsPerEdge,
		boot:       rand.Uint64(),
		// Derived from the sketch seed, so engines with equal sketch configs
		// route alike, and kept distinct from the seeds the sketch itself
		// consumes so routing and hashing stay independent.
		routeSeed: hashing.Hash64(cfg.Sketch.Seed, 0x73686172644b6579),
	}
	if cfg.Window != nil && cfg.Window.Now != nil {
		e.now = cfg.Window.Now
	}
	if cfg.ANN != nil {
		// Resolve into a private copy so the caller's struct is never
		// mutated, and validate the band structure against the sketch
		// before any shard exists.
		resolved := cfg.ANN.withDefaults()
		e.cfg.ANN = &resolved
		ann, err := newANNIndex(resolved, cfg.Sketch, cfg.Shards)
		if err != nil {
			return nil, err
		}
		e.ann = ann
	}
	if cfg.PositionCacheUsers > 0 {
		e.pcache = poscache.New(cfg.PositionCacheUsers)
	}
	// In window mode every shard ring gets the same boundaries, so rotation
	// stays in lockstep: those of the epoch-aligned bucket covering now, or
	// the recovered ring's, verbatim.
	newRing, ringAt := core.NewWindow, e.now()
	if ring != nil {
		newRing, ringAt = core.NewWindowAt, ring.End()
	}
	for i := range e.shards {
		s := &shard{ch: make(chan []stream.Edge, batches), free: make(chan []stream.Edge, batches+2)}
		s.applied.L = &s.waitMu
		if e.ann != nil {
			s.annSpill = make(map[stream.User]uint64)
		}
		if cfg.Window != nil {
			win, err := newRing(cfg.Sketch, cfg.Window.Buckets, cfg.Window.BucketDuration, ringAt)
			if err != nil {
				return nil, err
			}
			s.win = win
			s.sk = win.Merged()
		} else {
			sk, err := core.New(cfg.Sketch)
			if err != nil {
				return nil, err
			}
			s.sk = sk
		}
		e.shards[i] = s
		e.wg.Add(1)
		go e.worker(s)
	}
	if cfg.Window != nil {
		e.winEnd.Store(e.shards[0].win.End().UnixNano())
	}
	// The recovered state goes in before the linger can rotate: the
	// ring bucket by bucket, so recovered edges keep retiring on the schedule
	// they were written under.
	if flat != nil {
		e.fold(flat, 0)
	}
	for k := 0; ring != nil && k < ring.Buckets(); k++ {
		e.fold(ring.Bucket(k), k)
	}
	e.wg.Add(1)
	go e.linger()
	return e, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Closed reports whether Close has begun. Once true, writes and the
// context-aware query methods return ErrClosed.
func (e *Engine) Closed() bool { return e.closed.Load() }

// Shards returns N, the number of sketch shards.
func (e *Engine) Shards() int { return len(e.shards) }

// ShardOf returns the shard in [0, N) that owns user u: edges route exactly
// like stream.PartitionByUser under a seed derived from Sketch.Seed.
func (e *Engine) ShardOf(u stream.User) int {
	return stream.ShardOf(u, len(e.shards), e.routeSeed)
}

// worker is the shard's ingest goroutine: it applies batches under the
// shard lock until the queue is closed.
func (e *Engine) worker(s *shard) {
	defer e.wg.Done()
	for batch := range s.ch {
		s.skMu.Lock()
		s.sk.ProcessBatch(batch)
		end := s.processed.Load() + uint64(len(batch))
		e.record(s, batch, end)
		s.processed.Store(end)
		s.skMu.Unlock()
		if s.waiters.Load() > 0 {
			// Taking waitMu orders the broadcast after a waiter's own check
			// of processed: it is either parked by now or saw this batch.
			s.waitMu.Lock()
			s.applied.Broadcast()
			s.waitMu.Unlock()
		}
	}
}

// await blocks until the worker has applied target edges. The caller has
// made sure every one of them is on its way to the queue (see Flush).
func (s *shard) await(target uint64) {
	if s.processed.Load() >= target {
		return
	}
	s.waitMu.Lock()
	s.waiters.Add(1)
	for s.processed.Load() < target {
		s.applied.Wait()
	}
	s.waiters.Add(-1)
	s.waitMu.Unlock()
}

// linger hands partial producer batches to the workers every period of
// Config.Clock, so an idle stream's tail does not sit unapplied forever.
func (e *Engine) linger() {
	defer e.wg.Done()
	const period = 50 * time.Millisecond
	for {
		select {
		case <-e.stop:
			return
		case <-e.cfg.Clock.After(period):
			// Rotate first so an idle stream still retires buckets on the
			// clock. Neither step takes lifeMu (rotation: stateMu/skMu).
			e.maybeAdvance()
			for _, s := range e.shards {
				if len(s.ch) < cap(s.ch) { // else the residue stays pending for next time
					s.handOver()
				}
			}
		}
	}
}

// handOver puts the shard's pending residue, if any, on the queue (blocking
// while that is full) and returns the enqueued count it cut, both in one
// pendMu section (see shard.enqueued). The journal keeps what the worker is
// handed, so a residue under half a batch goes in memory of its own size — a
// trickle of flushed edges must not pin a batch's worth each — and its buffer
// stays the pending batch.
func (s *shard) handOver() (target uint64) {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	target = s.enqueued.Load()
	out := s.pend
	s.pend = nil
	if 2*len(out) < cap(out) {
		out, s.pend = slices.Clone(out), out[:0]
	}
	if len(out) > 0 {
		s.ch <- out
	}
	return target
}

// atCut, when set, runs as add cuts a full batch, before sending it (a test
// hook).
var atCut func()

// add accepts a group of edges for one shard, in order behind what is
// pending: they are copied onto the pending batch — the group's memory is not
// kept — and each batch they fill goes to the worker at once (blocking when
// the queue is full: backpressure). Every batch is exactly BatchSize edges,
// so the queue's capacity in edges really is bounded by queueEdges
// (rounded up to whole batches) however large the slices passed to
// ProcessBatch are; the residue stays pending (always shorter than one batch
// at rest). A batch is sent inside the pendMu section that cut it, so batches
// are applied in the order enqueued counted them and a Flush target is
// reached only once every edge it counted is applied (the worker never takes
// pendMu, and record's send to free never blocks).
func (s *shard) add(edges []stream.Edge, batchSize int) {
	for len(edges) > 0 {
		s.pendMu.Lock()
		if s.pend == nil {
			select {
			case s.pend = <-s.free:
			default:
				s.pend = make([]stream.Edge, 0, batchSize)
			}
		}
		n := copy(s.pend[len(s.pend):batchSize], edges)
		s.enqueued.Add(uint64(n))
		edges = edges[n:]
		if s.pend = s.pend[:len(s.pend)+n]; len(s.pend) == batchSize {
			if atCut != nil {
				atCut()
			}
			s.ch <- s.pend
			s.pend = nil
		}
		s.pendMu.Unlock()
	}
}

// Process routes one stream element to its owning shard: ProcessBatch of
// one edge, held on the caller's stack. It blocks only when that shard's
// queue is full (or, on durable engines, while a checkpoint is in progress).
// It must not be called after Close. On a durable engine the edge is
// WAL-appended — durable per the sync policy — before Process returns; an
// append error means the edge was not accepted — among them
// stream.ErrUserRange, a user id the log's encoding cannot carry.
func (e *Engine) Process(ed stream.Edge) error {
	edges := [1]stream.Edge{ed}
	return e.processBatch(edges[:], nil, nil)
}

// ProcessBatch routes a slice of stream elements, grouping them by owning
// shard first so each shard's lock is taken once per call rather than once
// per edge. This is the high-throughput ingest path — on durable engines
// also the efficient one, since the whole slice becomes one WAL record
// (and, under SyncEveryBatch, one fsync), which refuses the slice whole
// (stream.ErrUserRange) if it names a user id the log's encoding cannot
// carry. The slice stays the caller's: the engine keeps no reference to it,
// and it may be reused as soon as ProcessBatch returns.
func (e *Engine) ProcessBatch(edges []stream.Edge) error { return e.processBatch(edges, nil, nil) }

// Span says where one ProcessBatchSpan call's edges landed, in export cursors
// (delta.go): a reader holding Before holds After once it has applied them.
// Empty when another write or an epoch change came between.
type Span struct{ Before, After string }

// ProcessBatchSpan is ProcessBatch that also says where the edges landed.
// A non-nil encoded is the batch as a binary stream body carries it behind
// the magic (stream.BinaryElements of the body the edges were decoded from):
// a durable engine logs those bytes as the WAL record instead of encoding
// the edges again (wal.Log.AppendEncoded). Nil encodes them. Either way the
// bytes stay the caller's.
func (e *Engine) ProcessBatchSpan(edges []stream.Edge, encoded []byte) (span Span, err error) {
	return span, e.processBatch(edges, encoded, &span)
}

// processBatch is ProcessBatch, logging encoded when given and filling span
// when one is asked for.
func (e *Engine) processBatch(edges []stream.Edge, encoded []byte, span *Span) error {
	// Retire expired buckets before accepting new work (one atomic load on
	// the fast path; no-op unwindowed). Done before the locks below so the
	// rotation path never nests inside walMu.
	e.maybeAdvance()
	// The read lock makes "check closed, append, hand to shards" atomic
	// with respect to Close's channel teardown — see lifeMu.
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if len(edges) == 0 {
		return nil
	}
	if e.log != nil {
		// Hold the WAL gate across append-then-route so a concurrent
		// Checkpoint never captures a position whose edges are not yet in
		// the shards (see durability.go).
		e.walMu.RLock()
		defer e.walMu.RUnlock()
		if err := e.log.AppendEncoded(edges, encoded); err != nil {
			return err
		}
	}
	e.route(edges, span)
	return nil
}

// route groups edges by owning shard and hands the groups over —
// ProcessBatch minus lifecycle and durability, shared with WAL replay. The
// grouping is the counting partition in pooled scratch (no group outlives the
// call), and add copies each group onto the shard's batches: an edge is copied
// twice on its way to the worker, into memory that is warm and never zeroed,
// and the caller's slice is free the moment route returns. With one shard
// there is nothing to partition.
//
// Asked for a span, route reads the epoch and the shards' enqueued counts
// around the hand-over: when each count moved by exactly its own group and
// the epoch held, the two readings name the states around these edges alone.
func (e *Engine) route(edges []stream.Edge, span *Span) {
	groups := [][]stream.Edge{edges}
	if n := len(e.shards); n > 1 {
		p := partitioners.Get().(*stream.Partitioner)
		defer partitioners.Put(p)
		groups = p.Partition(edges, n, e.routeSeed)
	}
	if span == nil {
		for i, group := range groups {
			e.shards[i].add(group, e.cfg.BatchSize)
		}
		return
	}
	gen, rot := e.imports.Load(), e.winRot.Load()
	at := make([]uint64, 2*len(groups))
	before, after := at[:len(groups)], at[len(groups):]
	for i, group := range groups {
		before[i] = e.shards[i].enqueued.Load()
		e.shards[i].add(group, e.cfg.BatchSize)
	}
	for i, group := range groups {
		if after[i] = e.shards[i].enqueued.Load(); after[i]-before[i] != uint64(len(group)) {
			return
		}
	}
	if gen != e.imports.Load() || rot != e.winRot.Load() {
		return
	}
	var text [128]byte
	b := cursor{e.boot, stamp{gen, rot, before}}.appendTo(text[:0])
	cut := len(b)
	both := string(cursor{e.boot, stamp{gen, rot, after}}.appendTo(b)) // one allocation for the two
	*span = Span{both[:cut], both[cut:]}
}

var partitioners = sync.Pool{New: func() any { return new(stream.Partitioner) }}

// Flush blocks until every edge accepted before the call has been applied
// to its shard sketch. After Flush, Query reflects all of them exactly. It
// is a hand-over and a wait: per shard, one pendMu section cuts the target
// and takes the pending residue (shard.handOver), which goes on the
// shard's queue at once — every shard has its residue before Flush waits on
// any — and then Flush parks until each worker's processed count reaches the
// target, woken by the worker itself (shard.await): nothing polls, nothing
// sleeps. Flush racing Close is safe: once Close has begun, Flush returns
// immediately (Close itself drains every buffered edge), and a Flush
// already waiting holds lifeMu, so Close stops no worker under it.
func (e *Engine) Flush() {
	e.lifeMu.RLock()
	defer e.lifeMu.RUnlock()
	if e.closed.Load() {
		return
	}
	targets := make([]uint64, len(e.shards))
	for i, s := range e.shards {
		targets[i] = s.handOver()
	}
	for i, s := range e.shards {
		s.await(targets[i])
	}
}

// Close flushes buffered edges, stops the workers, and waits for them to
// exit; a durable engine then writes a final checkpoint (truncating the
// replayed WAL segments) and closes the log, so the next Open replays
// nothing. Close is idempotent. Producers must have stopped calling
// Process/ProcessBatch before Close begins.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(e.stop)
	// The exclusive lock waits out any producer or Flush that passed its
	// closed check before the CAS above, so no sender can race the
	// channel close below. Released before checkpointLocked, whose Flush
	// call must be able to take the read lock (it sees closed and returns;
	// the workers have already drained everything by then).
	e.lifeMu.Lock()
	for _, s := range e.shards {
		s.handOver()
		close(s.ch)
	}
	e.lifeMu.Unlock()
	e.wg.Wait()
	if e.log != nil {
		e.walMu.Lock()
		_, ckptErr := e.checkpointLocked()
		e.walMu.Unlock()
		if err := e.log.Close(); ckptErr == nil {
			ckptErr = err
		}
		return ckptErr
	}
	return nil
}

// Query estimates the similarity of users u and v from the merged global
// snapshot. The answer is exact for every applied edge; call Flush first
// for read-your-writes over edges
// still in flight. A post-Flush Query is bit-identical to a single
// vos.Sketch that consumed the whole stream with the same Config.
func (e *Engine) Query(u, v stream.User) core.Estimate {
	e.maybeAdvance()
	snap := e.acquire()
	defer snap.Release()
	return snap.Sk.Query(u, v)
}

// TopK returns the n candidates most similar to u from the merged global
// snapshot — highest estimated Jaccard first, ties broken by user ID, with
// the full estimates attached. The probe's virtual sketch is recovered
// once and the candidates are scored by core.TopKRecoveredContext, which
// spreads them over spare cores only when the work owed pays for a helper.
// The snapshot view is not written while the call holds it, the shared
// caches are internally locked, and no helper outlives the call, so the
// scan is read-only and race-clean.
//
// The result is identical to snapshot.TopK(u, candidates, n) — and to
// sorting per-pair Query estimates — regardless of how many cores scored
// it.
func (e *Engine) TopK(u stream.User, candidates []stream.User, n int) []core.TopKResult {
	out, _ := e.topK(context.Background(), u, candidates, n)
	return out
}

// TopKContext is TopK with lifecycle and cancellation checks: it returns
// ErrClosed once Close has begun, and ctx is plumbed into the candidate
// scan (core.TopKRecoveredContext), so cancelling the context actually
// aborts an in-flight scan instead of letting it run to completion — the
// contract vos.SimilarityService and the /v1/topk handler rely on for
// request-scoped deadlines.
func (e *Engine) TopKContext(ctx context.Context, u stream.User, candidates []stream.User, n int) ([]core.TopKResult, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.topK(ctx, u, candidates, n)
}

// topK is the shared body of TopK and TopKContext: snapshot, recover, scan.
func (e *Engine) topK(ctx context.Context, u stream.User, candidates []stream.User, n int) ([]core.TopKResult, error) {
	e.maybeAdvance()
	snap := e.acquire()
	defer snap.Release() // held through the whole scan
	return snap.Sk.TopKRecoveredContext(ctx, snap.Sk.RecoverSketch(u), candidates, n)
}

// PositionCacheStats reports the shared position cache's hit/miss/eviction
// counters; ok is false when caching is disabled (PositionCacheUsers < 0).
func (e *Engine) PositionCacheStats() (st poscache.Stats, ok bool) {
	if e.pcache == nil {
		return poscache.Stats{}, false
	}
	return e.pcache.Stats(), true
}

// QueryContext is Query with lifecycle and cancellation checks: ErrClosed
// once Close has begun, ctx.Err() when the context is already cancelled,
// otherwise the merged-snapshot answer. The snapshot query itself is a
// single O(k) comparison, so no mid-query cancellation point is needed —
// TopKContext is where cooperative cancellation matters.
func (e *Engine) QueryContext(ctx context.Context, u, v stream.User) (core.Estimate, error) {
	if e.closed.Load() {
		return core.Estimate{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return core.Estimate{}, err
	}
	return e.Query(u, v), nil
}

// CardinalityContext is Cardinality with lifecycle and cancellation checks.
func (e *Engine) CardinalityContext(ctx context.Context, u stream.User) (int64, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return e.Cardinality(u), nil
}

// Cardinality returns n_u over applied edges (over the live window, in
// window mode). A user's counter lives whole in its owning shard — edges
// route there, and recovered and imported state is folded there — so this
// reads one shard under one lock and is exact without a merge.
func (e *Engine) Cardinality(u stream.User) int64 {
	e.maybeAdvance()
	s := e.shards[e.ShardOf(u)]
	s.skMu.RLock()
	defer s.skMu.RUnlock()
	return s.sk.Cardinality(u)
}

// Stats summarises the merged global sketch (see core.VOS.Stats). In
// window mode the window metadata fields are set, the state covers the
// live window only, and MemoryBytes counts the full resident footprint —
// every shard's bucket ring (core.Window.Stats) plus the flattened
// snapshot — so an operator sizing a windowed deployment from /v1/stats
// sees the rings, not just one array.
func (e *Engine) Stats() core.Stats {
	e.maybeAdvance()
	snap := e.acquire()
	st := snap.Sk.Stats()
	snap.Release()
	if w := e.cfg.Window; w != nil {
		st.WindowSeconds = (time.Duration(w.Buckets) * w.BucketDuration).Seconds()
		st.WindowBuckets = w.Buckets
		e.stateMu.RLock()
		for _, s := range e.shards {
			s.skMu.RLock()
			st.MemoryBytes += s.win.Stats().MemoryBytes
			s.skMu.RUnlock()
		}
		e.stateMu.RUnlock()
	}
	return st
}

// MarshalBinary serializes the engine's merged state; the result restores
// with core.UnmarshalVOS (or vos.Unmarshal) as a plain single sketch. It
// flushes first, so the bytes cover every edge acknowledged before the
// call — a serialized engine is never behind its acknowledged writes. In
// window mode the bytes are
// the live window view (in-window edges only), without bucket structure —
// checkpoints, which must keep rotating after recovery, persist per-bucket
// state instead (see durability.go).
func (e *Engine) MarshalBinary() ([]byte, error) {
	e.maybeAdvance()
	e.Flush()
	snap := e.acquire()
	defer snap.Release()
	return snap.Sk.MarshalBinary()
}

// ShardStats reports one health snapshot per shard: ingest counters,
// backlog, and the shard array's load β — for shard 0 including the parity
// of every recovered checkpoint and imported sketch, which is folded there
// whole. A shard's β is a share of the merged array's, never an estimator
// input.
func (e *Engine) ShardStats() []metrics.ShardStat {
	elapsed := e.cfg.Clock.Now().Sub(e.start).Seconds()
	out := make([]metrics.ShardStat, len(e.shards))
	for i, s := range e.shards {
		s.skMu.RLock()
		beta := s.sk.Beta()
		users := s.sk.Users()
		s.skMu.RUnlock()
		processed := s.processed.Load()
		st := metrics.ShardStat{
			Shard:        i,
			Enqueued:     s.enqueued.Load(),
			Processed:    processed,
			QueueBatches: len(s.ch),
			Beta:         beta,
			Users:        users,
		}
		if elapsed > 0 {
			st.EdgesPerSec = float64(processed) / elapsed
		}
		out[i] = st
	}
	return out
}
