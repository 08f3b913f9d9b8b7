// Package core implements VOS (virtual odd sketch), the paper's primary
// contribution: a similarity sketch for fully dynamic bipartite graph
// streams with O(1) per-edge processing and O(k) per-pair queries.
//
// State (paper §IV):
//
//   - a shared bit array A of m bits,
//   - an item hash ψ : I → {1..k} selecting which of the k virtual odd
//     sketch slots an item toggles,
//   - k user hashes f_1 … f_k : U → {1..m} placing each user's k virtual
//     slots in A,
//   - a per-user cardinality counter n_u, in one flat open-addressed table
//     (counters.go),
//   - β, the fraction of 1-bits in A (maintained O(1) by the bitset).
//
// Processing an element (u, i, ±) flips the single bit A[f_ψ(i)(u)] and
// adjusts n_u — insertion and deletion are the same XOR toggle, which is
// why VOS, unlike MinHash/OPH, has no deletion bias.
//
// Queries recover the two users' virtual odd sketches from A, observe the
// fraction α of differing bits, correct for the contamination β caused by
// sharing the array, and invert the odd sketch estimator to obtain the
// symmetric difference, the common-item count, and the Jaccard coefficient.
package core

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"github.com/vossketch/vos/internal/bitset"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/poscache"
	"github.com/vossketch/vos/internal/stream"
)

// Config parameterises a VOS sketch.
type Config struct {
	// MemoryBits is m, the length of the shared bit array A.
	MemoryBits uint64
	// SketchBits is k, the virtual odd sketch size per user. The paper
	// sets it λ times the per-user bit budget of the 32-bit-register
	// baselines (λ = 2 in §V): k = λ·32·k_registers.
	SketchBits int
	// Seed makes the sketch reproducible; two sketches are mergeable and
	// comparable only when built from identical Config values.
	Seed uint64
	// Family selects the position-generation backend for the k user hashes
	// f_1 … f_k. The zero value (hashing.KindClassic) is the original
	// k-independent-seeds family; hashing.KindFast fills a position table
	// with O(1) amortized hash work per slot (see internal/hashing's fast
	// family). The two families place users' virtual slots at unrelated
	// positions, so the family is part of the sketch's identity: it is
	// serialized in sketch and checkpoint headers, and merge/compare/load
	// across families is refused (ErrFamilyMismatch) rather than silently
	// desynchronizing XOR state.
	Family hashing.Kind
}

// PaperConfig builds the §V memory-equalised configuration: baselines give
// each of numUsers users k32 registers of 32 bits, so m = 32·k32·numUsers,
// and VOS uses a virtual sketch of k = λ·32·k32 bits.
func PaperConfig(numUsers int, k32 int, lambda int, seed uint64) Config {
	return Config{
		MemoryBits: 32 * uint64(k32) * uint64(numUsers),
		SketchBits: lambda * 32 * k32,
		Seed:       seed,
	}
}

func (c Config) validate() error {
	if c.MemoryBits == 0 {
		return fmt.Errorf("core: MemoryBits must be positive")
	}
	if c.SketchBits <= 0 {
		return fmt.Errorf("core: SketchBits must be positive")
	}
	if uint64(c.SketchBits) > c.MemoryBits {
		return fmt.Errorf("core: virtual sketch (%d bits) larger than the shared array (%d bits)",
			c.SketchBits, c.MemoryBits)
	}
	// The serialized header stores the family tag in the high byte of the
	// SketchBits word (see marshal.go), so k must leave that byte clear.
	if uint64(c.SketchBits) >= 1<<48 {
		return fmt.Errorf("core: virtual sketch (%d bits) exceeds the supported maximum (2^48)", c.SketchBits)
	}
	if !c.Family.Valid() {
		return fmt.Errorf("core: unknown hash family %v", c.Family)
	}
	return nil
}

// VOS is the sketch. It is not safe for concurrent mutation; wrap with a
// mutex or shard by stream partition and Merge (see Merge). Read-only
// methods (Query, QueryRecovered, TopK, Recover*, Cardinality, Beta, Stats)
// may run concurrently with each other on a quiescent sketch — the engine's
// merged snapshots and the parallel top-K path rely on this. Nothing at run
// time enforces the single writer: where a Go map aborts the process on a
// concurrent read and write, the counter table, like the array, silently
// yields a wrong state. The rule is checked by the race detector alone — run
// the tests of any new caller under -race.
type VOS struct {
	cfg Config
	arr *bitset.Bitset
	// Exactly one of slots/fslots is non-nil, per cfg.Family. They stay
	// concrete (a branch on the hot path, not an interface) so the per-edge
	// position computation keeps inlining into Process.
	slots  *hashing.Family     // KindClassic: f_1 … f_k, one member per virtual slot
	fslots *hashing.FastFamily // KindFast: one strong hash + splitmix64 expansion
	card   counters            // n_u for every user with live state; holds no zero

	// pos optionally caches per-user position tables (see Positions).
	// nil means positions are recomputed per call. The cache is
	// thread-safe, so attaching one keeps the read paths race-clean.
	pos *poscache.Cache

	// posScratch pools k-word position buffers for the cache-less query
	// path, so a transient query allocates no table (see lookupPositions).
	posScratch sync.Pool

	// rec caches packed recovered sketches (see batch.go). Entries are
	// stamped with version, so any write invalidates all of them at once;
	// on a quiescent sketch a repeat pair comparison is then a pure
	// XOR+popcount over ~k/64 words. nil disables.
	rec *poscache.Cache
	// version counts writes (Process, Merge). It stamps recovered-sketch
	// cache entries; it is not serialized and restarts from zero on load,
	// which is safe because a loaded sketch starts with an empty cache.
	version uint64
}

// DefaultRecoveredCacheEntries bounds the recovered-sketch cache a new
// sketch gets. Entries cost k/8 bytes (800 B at the paper's k = 6400, so
// the default is ≈3 MiB at paper scale) — small enough to enable by
// default, unlike position tables, which are 64× larger per user.
const DefaultRecoveredCacheEntries = 4096

// New creates an empty VOS sketch. It returns an error for degenerate
// configurations.
func New(cfg Config) (*VOS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	v := &VOS{
		cfg:  cfg,
		arr:  bitset.New(cfg.MemoryBits),
		card: newCounters(counterSeed),
		rec:  poscache.New(DefaultRecoveredCacheEntries),
	}
	if cfg.Family == hashing.KindFast {
		v.fslots = hashing.NewFastFamily(cfg.SketchBits, cfg.Seed)
	} else {
		v.slots = hashing.NewFamily(cfg.SketchBits, cfg.Seed)
	}
	return v, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *VOS {
	v, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return v
}

// Config returns the sketch configuration.
func (v *VOS) Config() Config { return v.cfg }

// K returns the virtual sketch size k.
func (v *VOS) K() int { return v.cfg.SketchBits }

// MemoryBits returns m.
func (v *VOS) MemoryBits() uint64 { return v.cfg.MemoryBits }

// SetPositionCache attaches a position cache to the materialized read
// path (nil detaches). Position tables depend only on the user key and the
// sketch's Seed/MemoryBits/SketchBits, so one cache may be shared across
// sketches with identical Config — the engine shares a single cache
// between all its merged snapshots. Sharing across different configs
// returns wrong positions; don't. Each entry costs SketchBits·8 bytes
// (50 KiB at the paper's k = 6400); see poscache.New for sizing guidance.
func (v *VOS) SetPositionCache(c *poscache.Cache) { v.pos = c }

// SetRecoveredCacheCapacity resizes the recovered-sketch cache: entries
// packed recovered sketches (k/8 bytes each) are kept, stamped by write
// version, so repeat queries on a quiescent sketch skip hashing AND array
// probing. 0 restores the default (4096 entries); negative disables the
// cache. Resizing discards cached sketches.
func (v *VOS) SetRecoveredCacheCapacity(entries int) {
	switch {
	case entries < 0:
		v.rec = nil
	case entries == 0:
		v.rec = poscache.New(DefaultRecoveredCacheEntries)
	default:
		v.rec = poscache.New(entries)
	}
}

// ShareRecoveredCache makes v serve and fill packed recovered sketches from
// c, stamped with stamp, in place of its private cache and write version.
// Sketches with identical Config may share one cache as long as every stamp
// is unique among them and each is re-stamped after its last write, before
// it is next read — a write advances the version past the stamp, into
// values another sharer may hold. The engine's resident merged views share
// one cache this way, so two views pin one set of recovered sketches.
func (v *VOS) ShareRecoveredCache(c *poscache.Cache, stamp uint64) {
	v.rec, v.version = c, stamp
}

// RecoveredCacheStats reports the recovered-sketch cache counters; ok is
// false when the cache is disabled.
func (v *VOS) RecoveredCacheStats() (st poscache.Stats, ok bool) {
	if v.rec == nil {
		return poscache.Stats{}, false
	}
	return v.rec.Stats(), true
}

const slotSeedTag = 0x5f4dcc3b5aa765d6 // separates ψ's seed from the sketch seed

// slot returns ψ(item) ∈ [0, k).
func (v *VOS) slot(i stream.Item) int {
	return int(hashing.HashToRange(uint64(i), v.cfg.Seed^slotSeedTag, uint64(v.cfg.SketchBits)))
}

// position returns f_j(u) ∈ [0, m).
func (v *VOS) position(u stream.User, j int) uint64 {
	if v.fslots != nil {
		return v.fslots.HashRange(j, uint64(u), v.cfg.MemoryBits)
	}
	return v.slots.HashRange(j, uint64(u), v.cfg.MemoryBits)
}

// fillPositions writes f_0(u) … f_{len(dst)-1}(u) into dst with the active
// family's batched fill — the one hashing entry point of every
// position-table materialisation (poscache fills, sketch recovery, the
// cache-less query path).
func (v *VOS) fillPositions(dst []uint64, u stream.User) {
	if v.fslots != nil {
		v.fslots.HashRangeInto(dst, uint64(u), v.cfg.MemoryBits)
		return
	}
	v.slots.HashRangeInto(dst, uint64(u), v.cfg.MemoryBits)
}

// Process folds one stream element into the sketch in O(1): one hash for
// ψ, one for f_j, one bit flip, one counter update.
func (v *VOS) Process(e stream.Edge) {
	v.version++ // invalidates every cached recovered sketch
	v.arr.Flip(v.position(e.User, v.slot(e.Item)))
	v.card.bump(e.User, opDelta(e.Op))
}

// blockLen is how many edges one step of ProcessBatch covers: long enough
// that the array misses of a block's toggles are all in flight together
// (bitset.FlipAll), short enough that its positions and then its home slots
// (2 KiB each) stay on the stack and its edges are still in L1 when the
// counters are bumped.
const blockLen = 256

// edgeWords is stream.Edge's size in words.
const edgeWords = int(unsafe.Sizeof(stream.Edge{}) / 8)

// togglePositions writes to pos[i] the array position edges[i] toggles,
// f_ψ(item)(user). len(pos) == len(edges). With AVX-512 the family's
// EdgePositions takes eight edges a step, reading each as edgeWords words,
// user first and item second (TestTogglePositionsMatchPosition pins that
// layout); the rest is this loop, the reference.
func (v *VOS) togglePositions(pos []uint64, edges []stream.Edge) {
	words := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(edges))), len(edges)*edgeWords)
	var i int
	if v.fslots != nil {
		i = v.fslots.EdgePositions(pos, words, edgeWords, v.cfg.Seed^slotSeedTag, v.cfg.MemoryBits)
	} else {
		i = v.slots.EdgePositions(pos, words, edgeWords, v.cfg.Seed^slotSeedTag, v.cfg.MemoryBits)
	}
	for ; i < len(edges); i++ {
		pos[i] = v.position(edges[i].User, v.slot(edges[i].Item))
	}
}

// ProcessBatch folds a slice of stream elements into the sketch — the same
// state transition as calling Process per element, byte for byte — in blocks
// of up to blockLen edges: hash the block's toggled positions into a stack
// buffer, toggle them back to back (bitset.FlipAll), then adjust the counters
// as one block too (counters.bumpAll). One write version covers the whole
// slice. Process interleaves the three per edge, so every array miss and every
// counter-table miss waits behind the edge before it; here a block's misses
// overlap, the array's and then the table's. The slice is only read, and not
// kept. The engine's shard workers apply their queued batches through this,
// and the resident views replay journalled batches through it.
func (v *VOS) ProcessBatch(edges []stream.Edge) {
	if len(edges) == 0 {
		return
	}
	v.version++ // one write event: invalidates every cached recovered sketch
	var buf [blockLen]uint64
	for len(edges) > 0 {
		blk := edges[:min(len(edges), blockLen)]
		edges = edges[len(blk):]
		pos := buf[:len(blk)]
		v.togglePositions(pos, blk)
		v.arr.FlipAll(pos)
		v.card.bumpAll(blk)
	}
}

// opDelta maps an action onto its cardinality delta: an undefined Op is an
// insert, as the element codec encodes it (stream.Op).
func opDelta(op stream.Op) int64 {
	if op == stream.Delete {
		return -1
	}
	return 1
}

// Cardinality returns n_u, the tracked number of items user u currently
// subscribes to. For feasible streams this is exact.
func (v *VOS) Cardinality(u stream.User) int64 { return v.card.get(u) }

// ForEachUser calls fn for every user with live sketch state (a nonzero
// cardinality counter — zero counters are pruned on every write) in
// unspecified order, stopping early when fn returns false. fn must not
// write the sketch. The engine's approximate top-K index enumerates a
// merged snapshot through this to seed its initial build.
func (v *VOS) ForEachUser(fn func(u stream.User, card int64) bool) { v.card.all(fn) }

// Beta returns β, the current fraction of 1-bits in the shared array.
func (v *VOS) Beta() float64 { return v.arr.OnesFraction() }

// Users returns the number of users with a nonzero cardinality counter.
// Process and Merge prune zero-cardinality entries on every operation, so
// the table never holds a zero and its live count is the answer in O(1).
func (v *VOS) Users() int { return v.card.live }

// xorOnes counts the slots where the two users' recovered sketches differ.
func (v *VOS) xorOnes(u, w stream.User) int {
	z := 0
	for j := 0; j < v.cfg.SketchBits; j++ {
		if v.arr.GetBit(v.position(u, j)) != v.arr.GetBit(v.position(w, j)) {
			z++
		}
	}
	return z
}

// Estimate bundles every quantity a similarity query produces, so callers
// can inspect the intermediate values (α, β) the paper's formulas use.
type Estimate struct {
	// Common is ŝ_uv, the estimated number of common items (paper eq. for
	// ŝ; may be negative or exceed min(n_u, n_v) in the tails — see
	// CommonClamped).
	Common float64 `json:"common"`
	// CommonClamped is Common restricted to the feasible range
	// [0, min(n_u, n_v)], the value the Jaccard estimate is derived from.
	CommonClamped float64 `json:"common_clamped"`
	// Jaccard is Ĵ = ŝ/(n_u + n_v − ŝ) using the clamped ŝ, in [0, 1].
	Jaccard float64 `json:"jaccard"`
	// SymmetricDifference is n̂Δ.
	SymmetricDifference float64 `json:"symmetric_difference"`
	// Alpha is the observed fraction of differing recovered bits.
	Alpha float64 `json:"alpha"`
	// Beta is the array load at query time.
	Beta float64 `json:"beta"`
	// CardinalityU and CardinalityV are the tracked n_u, n_v.
	CardinalityU int64 `json:"cardinality_u"`
	CardinalityV int64 `json:"cardinality_v"`
	// Saturated reports that α or β was clamped away from 1/2, i.e. the
	// sketch is overloaded for this pair and the estimate is a floor.
	Saturated bool `json:"saturated,omitempty"`
}

// Query estimates the similarity of users u and w in O(k). It runs on the
// materialized read path: u's virtual sketch is recovered once into packed
// words and w's recovered bits are XOR-popcounted against it a word at a
// time (see batch.go), with position tables served from the attached cache
// when one is present. The result is bit-identical to QueryPerBit.
func (v *VOS) Query(u, w stream.User) Estimate {
	return v.QueryRecovered(v.RecoverSketch(u), w)
}

// QueryPerBit is the scalar reference implementation of Query: 2k seeded
// hash evaluations and 2k single-bit array probes, one virtual slot at a
// time, exactly the paper's description and this package's original read
// path. It allocates nothing and touches no cache. It is retained as the
// parity oracle for the materialized path (the two must agree bit for bit,
// since α is computed from the same recovered bits) and as the baseline
// the query benchmarks compare against.
func (v *VOS) QueryPerBit(u, w stream.User) Estimate {
	return v.estimateFrom(v.xorOnes(u, w), v.card.get(u), v.card.get(w), v.loadAt(v.Beta()))
}

// load is the array load β with 2·ln|1−2β|, |1−2β| clamped as estimateFrom
// says (clamped then true): a recovery takes that logarithm once for every
// candidate it is scored against.
type load struct {
	beta, log2 float64
	clamped    bool
}

func (v *VOS) loadAt(beta float64) load {
	l := load{beta: beta}
	absB := math.Abs(1 - 2*beta)
	if absB < 1/(2*float64(v.cfg.MemoryBits)) {
		absB = 1 / (2 * float64(v.cfg.MemoryBits))
		l.clamped = true
	}
	l.log2 = 2 * math.Log(absB)
	return l
}

// estimateFrom computes the full Estimate from the differing-slot count z,
// the two cardinalities, and the array load — the §IV estimator chain
// shared by Query and the batch path.
func (v *VOS) estimateFrom(z int, nu, nv int64, l load) Estimate {
	k := float64(v.cfg.SketchBits)
	alpha := float64(z) / k

	// |1−2α| and |1−2β| (loadAt) enter logarithms; clamp them a half-step
	// above zero (the resolution of the underlying counts) so estimates stay
	// finite. The paper's ŝ expression already takes absolute values.
	saturated := l.clamped
	absA := math.Abs(1 - 2*alpha)
	if absA < 1/(2*k) {
		absA = 1 / (2 * k)
		saturated = true
	}

	// Both estimates share ln|1−2α| − 2·ln|1−2β|: one logarithm here, the
	// other taken with the load.
	logs := math.Log(absA) - l.log2
	// n̂Δ = −k·(ln(1−2α) − 2·ln(1−2β)) / 2
	nDelta := -k * logs / 2
	if nDelta < 0 {
		nDelta = 0
	}
	// ŝ = (n_u+n_v)/2 + k·(ln|1−2α| − 2·ln|1−2β|)/4
	common := float64(nu+nv)/2 + k*logs/4

	clamped := common
	maxCommon := float64(nu)
	if nv < nu {
		maxCommon = float64(nv)
	}
	if clamped < 0 {
		clamped = 0
	}
	if clamped > maxCommon {
		clamped = maxCommon
	}
	jac := 0.0
	if union := float64(nu+nv) - clamped; union > 0 {
		jac = clamped / union
	}
	if jac < 0 {
		jac = 0
	} else if jac > 1 {
		jac = 1
	}

	return Estimate{
		Common:              common,
		CommonClamped:       clamped,
		Jaccard:             jac,
		SymmetricDifference: nDelta,
		Alpha:               alpha,
		Beta:                l.beta,
		CardinalityU:        nu,
		CardinalityV:        nv,
		Saturated:           saturated,
	}
}

// EstimateCommonItems returns ŝ_uv (unclamped, the paper's estimator).
func (v *VOS) EstimateCommonItems(u, w stream.User) float64 {
	return v.Query(u, w).Common
}

// EstimateJaccard returns Ĵ(S_u, S_w) in [0, 1].
func (v *VOS) EstimateJaccard(u, w stream.User) float64 {
	return v.Query(u, w).Jaccard
}

// Merge folds other into v. Merging is exact for any partition of a stream
// across sketches with identical configurations: the shared arrays XOR
// (parities add mod 2) and the cardinality counters add — one linear scan of
// other's counter table, each entry bumped into v's. After Merge, v equals
// the sketch of the concatenated streams.
func (v *VOS) Merge(other *VOS) error {
	if v.cfg.Family != other.cfg.Family {
		return fmt.Errorf("%w: cannot merge %v-family sketch into %v-family sketch",
			ErrFamilyMismatch, other.cfg.Family, v.cfg.Family)
	}
	if v.cfg != other.cfg {
		return fmt.Errorf("core: cannot merge sketches with different configs (%+v vs %+v)",
			v.cfg, other.cfg)
	}
	v.fold(other)
	return nil
}

// fold is Merge once the configs are known to agree: XOR other's array into
// v's and add each of other's counters to v's.
func (v *VOS) fold(other *VOS) {
	v.version++ // invalidates every cached recovered sketch
	v.arr.Xor(other.arr)
	if v.card.live == 0 {
		// Folding into an empty sketch (every snapshot rebuild starts this
		// way): size the table once instead of growing it from nothing by
		// doubling.
		v.card.reserve(other.card.live)
	}
	for u, c := range other.card.all {
		v.card.bump(u, c)
	}
}

// Partition is Merge read backwards: it splits v into n sketches of v's
// config whose merge, in any order, is v again. Parity state is linear, so
// any split will do, and the whole array may lie in one part; the split made
// here is the one a sharded owner of v needs. Part 0 takes the array, parts
// 1… an empty one, and each user's counter goes, whole, to part
// stream.ShardOf(u, n, seed) — so an engine that routes with (n, seed) can
// merge part i into shard i and still answer a user's cardinality from the
// user's own shard alone. v is only read.
func (v *VOS) Partition(n int, seed uint64) []*VOS {
	parts := make([]*VOS, n)
	for i := range parts {
		parts[i] = MustNew(v.cfg)
	}
	parts[0].arr.Xor(v.arr)
	for u, c := range v.card.all {
		parts[stream.ShardOf(u, n, seed)].card.bump(u, c)
	}
	return parts
}

// Reset returns the sketch to its empty state in place, keeping the
// configuration, the allocated array, the counter table's capacity (cleared,
// not reallocated: a window bucket refills to about the size it had), and any
// attached caches (recovered-sketch cache entries are version-stamped, so the
// reset invalidates them).
func (v *VOS) Reset() {
	v.version++
	v.arr.Reset()
	v.card.clear()
}

// BiasApprox returns the analytic approximation of E[ŝ] − s at symmetric
// difference nDelta under the current array load β.
//
// Derivation note: the arXiv text prints E(ŝ) ≈ s + 1/8 − k·β·e^{2nΔ/k}/
// (1−2β)² − e^{4nΔ/k}/(8(1−2β)⁴), whose middle term grows with k·β and
// contradicts the paper's own experiments (it would put the bias in the
// hundreds for §V's parameters). Re-deriving via the delta method on
// α ~ Binomial(k, p)/k with 1−2p = (1−2β)²e^{−2nΔ/k} gives
//
//	E[ŝ] − s ≈ 1/8 − e^{4nΔ/k} / (8·(1−2β)⁴),
//
// which coincides with the printed expression at β = 0 and matches Monte
// Carlo simulation (see TestBiasApproxMatchesSimulation). We implement the
// re-derived form.
func (v *VOS) BiasApprox(nDelta float64) float64 {
	k := float64(v.cfg.SketchBits)
	c := 1 - 2*v.Beta()
	return 1.0/8 - math.Exp(4*nDelta/k)/(8*c*c*c*c)
}

// VarianceApprox returns the analytic approximation of Var[ŝ] at symmetric
// difference nDelta under the current array load β:
//
//	Var[ŝ] ≈ −k/16 + k·e^{4nΔ/k} / (16·(1−2β)⁴),
//
// again the delta-method form (see BiasApprox for why the printed variant's
// extra k²β term is not implemented); at β = 0 it reduces to the odd sketch
// variance k·(e^{4nΔ/k} − 1)/16 of Mitzenmacher et al.
func (v *VOS) VarianceApprox(nDelta float64) float64 {
	k := float64(v.cfg.SketchBits)
	c := 1 - 2*v.Beta()
	return -k/16 + k*math.Exp(4*nDelta/k)/(16*c*c*c*c)
}

// Stats summarises sketch state for diagnostics.
type Stats struct {
	MemoryBits  uint64  `json:"memory_bits"`
	SketchBits  int     `json:"sketch_bits"`
	OnesCount   uint64  `json:"ones_count"`
	Beta        float64 `json:"beta"`
	Users       int     `json:"users"`
	MemoryBytes uint64  `json:"memory_bytes"`

	// WindowSeconds and WindowBuckets describe the sliding window when the
	// state comes from a windowed sketch or engine: the window span
	// B·bucketDuration in seconds and the bucket count B. Both are zero
	// (and absent on the wire) on an unwindowed (append-forever) sketch.
	WindowSeconds float64 `json:"window_seconds,omitempty"`
	WindowBuckets int     `json:"window_buckets,omitempty"`

	// Family is the active position-generation backend (Config.Family),
	// "classic" or "fast" on the wire.
	Family hashing.Kind `json:"hash_family"`
}

// Stats returns a snapshot of the sketch's state.
func (v *VOS) Stats() Stats {
	return Stats{
		MemoryBits:  v.cfg.MemoryBits,
		SketchBits:  v.cfg.SketchBits,
		OnesCount:   v.arr.Count(),
		Beta:        v.Beta(),
		Users:       v.Users(),
		MemoryBytes: (v.cfg.MemoryBits+7)/8 + uint64(v.card.live)*16,
		Family:      v.cfg.Family,
	}
}

// Slot returns ψ(i) ∈ [0, k): the one bit of a user's virtual odd sketch
// that an element carrying item i toggles. A reader of the applied stream
// (the engine's approximate top-K index) uses it to apply the write to a
// copy of the recovered sketch.
func (v *VOS) Slot(i stream.Item) int { return v.slot(i) }
