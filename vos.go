// Package vos implements VOS (virtual odd sketch), a fast, memory-compact
// sketch for estimating user similarities — common-item counts and Jaccard
// coefficients — over fully dynamic bipartite graph streams, i.e. streams
// of subscriptions AND unsubscriptions.
//
// It is a from-scratch Go reproduction of:
//
//	Peng Jia, Pinghui Wang, Jing Tao, Xiaohong Guan.
//	"A Fast Sketch Method for Mining User Similarities over Fully
//	Dynamic Graph Streams." ICDE 2019 (arXiv:1901.00650).
//
// # Why VOS
//
// Classic similarity sketches (MinHash, one permutation hashing) are
// sampling methods: they keep the minimum-hash item per register. A
// deletion of that minimum cannot be undone without the full set, so under
// unsubscriptions the samples drift from uniform and estimates become
// biased. VOS instead maintains the parity (odd sketch) of each user's
// item set: insert and delete are the same XOR toggle and cancel exactly,
// so the sketch state depends only on the current set — deletions are
// free. Per-user sketches are stored virtually in one shared bit array,
// and queries correct for the resulting contamination using the array's
// global load β.
//
// Processing an element is O(1); querying a pair is O(k) for a virtual
// sketch of k bits.
//
// # Scaling out
//
// There are two in-process shapes. Sketch is for one goroutine. Engine is
// for everything concurrent: it shards the stream across N private
// sketches with one ingest goroutine each and answers queries from an
// exactly merged snapshot — because VOS merging is exact for any partition
// of the stream, sharded ingest costs no accuracy, and one shard is the
// plain thread-safe sketch.
//
// # Sliding windows
//
// Because the state is pure parity, a sliding window — "who is similar
// to u over the last hour" — is structural: EngineConfig.Window gives
// each engine shard a ring of time-bucketed sub-sketches, queries their
// XOR-merge, and retires the oldest bucket by XOR-ing it back out in
// O(sketch), with no per-edge expiry tracking.
//
// # Serving
//
// SimilarityService is the context-aware serving interface all deployment
// shapes satisfy: NewEngineService adapts the in-process Engine, package
// server exposes any SimilarityService over a versioned HTTP API, package
// client implements it over the wire, and cmd/vosd is the runnable daemon.
// Optional capabilities (Checkpointer, Windowed) are probed at runtime. See
// the README's "Serving" section and docs/ARCHITECTURE.md for the layer map.
//
// # Quick start
//
//	sk := vos.MustNew(vos.Config{MemoryBits: 1 << 22, SketchBits: 4096, Seed: 1})
//	sk.Process(vos.Edge{User: alice, Item: video1, Op: vos.Insert})
//	sk.Process(vos.Edge{User: bob, Item: video1, Op: vos.Insert})
//	sk.Process(vos.Edge{User: alice, Item: video1, Op: vos.Delete}) // unsubscribe
//	est := sk.Query(alice, bob)
//	fmt.Println(est.Common, est.Jaccard)
//
// The package Examples carry complete application loops (similar users,
// collaborative filtering, near-duplicates); README.md has the
// architecture map and reproduction methodology.
package vos

import (
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// User identifies a user (left node) of the bipartite graph.
type User = stream.User

// Item identifies an item (right node) of the bipartite graph.
type Item = stream.Item

// Op is a stream action: Insert (subscribe) or Delete (unsubscribe).
type Op = stream.Op

// Stream actions.
const (
	// Insert is the "+" action: user subscribes to item.
	Insert = stream.Insert
	// Delete is the "−" action: user unsubscribes from item.
	Delete = stream.Delete
)

// Edge is one stream element (u, i, a).
type Edge = stream.Edge

// Sketch is the VOS sketch. See the package documentation for the model
// and core.VOS for implementation details. Not safe for concurrent use;
// see NewEngine for the concurrent shape (sharded, multicore ingestion;
// Shards: 1 is one sketch behind a single writer).
type Sketch = core.VOS

// Config parameterises a Sketch: total shared memory m in bits, virtual
// per-user sketch size k in bits, a seed, and the hash family generating
// the per-user position tables (see HashFamily).
type Config = core.Config

// HashFamily selects the position-generation backend of a sketch — how the
// k user hashes f_1 … f_k are evaluated. It is part of a sketch's identity:
// it is recorded in serialized sketches and checkpoints, and state built
// under different families is never merged, compared, or loaded across
// (see ErrFamilyMismatch).
type HashFamily = hashing.Kind

const (
	// FamilyClassic (the zero value) evaluates k independently seeded
	// hashes per position table — the original backend.
	FamilyClassic = hashing.KindClassic
	// FamilyFast fills a position table from one strong hash of the user
	// key expanded by a counter-based generator — O(1) amortized hash work
	// per slot, in the spirit of Dahlgaard–Knudsen–Thorup fast similarity
	// sketching. Estimates keep the same accuracy (TestFastFamilyAccuracy
	// in internal/core holds them to the classic family's error budget);
	// only the positions differ from FamilyClassic.
	FamilyFast = hashing.KindFast
)

// ParseHashFamily maps the wire/flag names "classic" and "fast" onto a
// HashFamily, the inverse of HashFamily.String.
func ParseHashFamily(s string) (HashFamily, error) { return hashing.ParseKind(s) }

// ErrFamilyMismatch reports an attempt to merge, compare, or load sketch
// state across different hash families. Use errors.Is to detect it.
var ErrFamilyMismatch = core.ErrFamilyMismatch

// ErrCorruptSketch reports serialized sketch bytes that do not decode:
// every Unmarshal (and StateSync.ImportSketch) failure on malformed
// input wraps it. Use errors.Is to detect it.
var ErrCorruptSketch = core.ErrCorrupt

// Estimate bundles the outputs of a similarity query: the common-item
// estimate (raw and clamped), the Jaccard estimate, the symmetric
// difference, and the internal α/β diagnostics.
type Estimate = core.Estimate

// Recovered is a packed snapshot of one user's recovered virtual sketch,
// produced by Sketch.RecoverSketch. A similarity search recovers the probe
// user once and compares every candidate against the packed bits with a
// word-level XOR + popcount (Sketch.QueryRecovered, Sketch.TopK) instead
// of re-hashing the probe's k positions per pair. Snapshots are valid
// until the next write (Process or Merge).
type Recovered = core.Recovered

// TopKResult pairs a candidate user with its similarity estimate, the
// element type of Sketch.TopK and Engine.TopK: highest estimated Jaccard
// first, ties broken by user ID.
type TopKResult = core.TopKResult

// Stats summarises sketch state (array load β, memory, user count).
type Stats = core.Stats

// New creates a VOS sketch. MemoryBits and SketchBits must be positive
// with SketchBits ≤ MemoryBits.
func New(cfg Config) (*Sketch, error) { return core.New(cfg) }

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Sketch { return core.MustNew(cfg) }

// PaperConfig builds the paper's §V memory-equalised configuration: the
// budget a 32-bit-register baseline would spend on numUsers users with
// k32 registers each (m = 32·k32·numUsers bits), with a virtual sketch of
// lambda·32·k32 bits (the paper uses lambda = 2).
func PaperConfig(numUsers, k32, lambda int, seed uint64) Config {
	return core.PaperConfig(numUsers, k32, lambda, seed)
}

// Unmarshal decodes a sketch serialized with Sketch.MarshalBinary.
func Unmarshal(data []byte) (*Sketch, error) { return core.UnmarshalVOS(data) }

// UserFromString maps an external string identifier (a username, URL, …)
// into the User key space with a fixed hash, so string-keyed applications
// can use the sketches directly. The mapping is stable across processes.
// It spans all 64 bits, so half of its results are above MaxUser, which no
// encoded hop carries (ErrUserRange): clear the top bit (& MaxUser) of ids
// bound for a server, a stream file or a durable Engine.
func UserFromString(s string) User {
	return User(hashing.HashString(s, 0x75736572734b6579))
}

// ItemFromString maps an external string identifier into the Item key
// space; see UserFromString.
func ItemFromString(s string) Item {
	return Item(hashing.HashString(s, 0x6974656d734b6579))
}
