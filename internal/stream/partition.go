package stream

import (
	"fmt"
	"unsafe"

	"github.com/vossketch/vos/internal/hashing"
)

// ShardOf returns the shard in [0, n) that owns user u under the given
// routing seed. It is the single routing function shared by offline
// partitioning (PartitionByUser) and online sharded ingestion
// (internal/engine): anything partitioned with the same n and seed agrees
// on ownership, so sketches built offline per partition can be merged with
// an engine's shards.
func ShardOf(u User, n int, seed uint64) int {
	if n <= 0 {
		panic(badShardCount(n))
	}
	return int(hashing.HashToRange(uint64(u), seed, uint64(n)))
}

// badShardCount is the panic for n ≤ 0 shards, formatted only if printed: ShardOf inlines.
type badShardCount int

func (n badShardCount) Error() string {
	return fmt.Sprintf("stream: shard count %d must be positive", int(n))
}

// PartitionByUser splits a stream into n shards by hashing the user ID,
// preserving each shard's internal order. Because all of a user's
// elements land in the same shard, every shard is itself a feasible
// stream whenever the input is, and sketches with user-keyed state
// (MinHash registers, RP samplers, cardinality counters) can be built
// per shard and combined.
//
// For VOS specifically any partition works — its merge is XOR-exact
// regardless of how edges are split (see core.VOS.Merge) — but user
// partitioning is the safe default for every method in this module.
//
// It is the one by-user split there is — the engine routes a batch to its
// shards with it and the gateway fans a request out to its backends — here in
// scratch of its own, which the shards keep.
func PartitionByUser(edges []Edge, n int, seed uint64) [][]Edge {
	return new(Partitioner).Partition(edges, n, seed)
}

// Partitioner is that split's scratch. It is a counting partition: one pass
// finds every edge's owner (ShardOf, eight a step with AVX-512) and the shard
// sizes, one pass scatters the edges into a buffer, shards back to back in
// arrival order. An edge is copied once and the shards share no memory with
// edges; a shard's capacity ends with it, so an append to one moves it out
// rather than running on into the next, and a shard no user hashes to is nil.
// Owners, offsets, buffer and shard headers stay from call to call, never
// zeroed and remade only for a longer call: a caller done with the shards
// before its next Partition — one that copies or encodes them, from a sync.Pool
// — allocates nothing. The zero value is ready to use.
type Partitioner struct {
	owner  []uint32 // wide enough: a shard is an array and a goroutine, or a node
	at     []int    // at[i]: where shard i's next edge goes, once the sizes are summed
	buf    []Edge
	shards [][]Edge
}

// Partition is PartitionByUser into p's scratch: the shards are valid until
// p's next Partition.
func (p *Partitioner) Partition(edges []Edge, n int, seed uint64) [][]Edge {
	if n <= 0 {
		panic(badShardCount(n))
	}
	if cap(p.buf) < len(edges) {
		p.owner, p.buf = make([]uint32, len(edges)), make([]Edge, len(edges))
	}
	if cap(p.shards) < n {
		p.at, p.shards = make([]int, n+1), make([][]Edge, n)
	}
	owner, at, buf, shards := p.owner[:len(edges)], p.at[:n+1], p.buf[:len(edges)], p.shards[:n]
	clear(at)
	const stride = int(unsafe.Sizeof(Edge{}) / 8) // an Edge read as words, user first
	words := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(edges))), len(edges)*stride)
	for k := hashing.UsersToRange(owner, words, stride, seed, uint64(n)); k < len(edges); k++ {
		owner[k] = uint32(hashing.HashToRange(uint64(edges[k].User), seed, uint64(n)))
	}
	for _, i := range owner {
		at[i+1]++
	}
	for i := 1; i < n; i++ {
		at[i+1] += at[i]
	}
	for k := range edges {
		i := owner[k]
		buf[at[i]] = edges[k]
		at[i]++
	}
	// The scatter left at[i] at the end of shard i, the start of shard i+1.
	lo := 0
	for i, hi := range at[:n] {
		shards[i] = nil
		if hi > lo {
			shards[i] = buf[lo:hi:hi]
		}
		lo = hi
	}
	return shards
}

// RoundRobin splits a stream into n shards element by element. Shards are
// NOT feasibility-preserving per user (a user's insert and delete can land
// in different shards); use it only with order-insensitive, partition-
// exact sketches such as VOS.
func RoundRobin(edges []Edge, n int) [][]Edge {
	if n <= 0 {
		panic(badShardCount(n))
	}
	shards := make([][]Edge, n)
	for i, e := range edges {
		shards[i%n] = append(shards[i%n], e)
	}
	return shards
}
