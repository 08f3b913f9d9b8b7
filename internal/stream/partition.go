package stream

import (
	"fmt"

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
		panic(fmt.Sprintf("stream: shard count %d must be positive", n))
	}
	return int(hashing.HashToRange(uint64(u), seed, uint64(n)))
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
func PartitionByUser(edges []Edge, n int, seed uint64) [][]Edge {
	if n <= 0 {
		panic(fmt.Sprintf("stream: shard count %d must be positive", n))
	}
	shards := make([][]Edge, n)
	for _, e := range edges {
		s := ShardOf(e.User, n, seed)
		shards[s] = append(shards[s], e)
	}
	return shards
}

// RoundRobin splits a stream into n shards element by element. Shards are
// NOT feasibility-preserving per user (a user's insert and delete can land
// in different shards); use it only with order-insensitive, partition-
// exact sketches such as VOS.
func RoundRobin(edges []Edge, n int) [][]Edge {
	if n <= 0 {
		panic(fmt.Sprintf("stream: shard count %d must be positive", n))
	}
	shards := make([][]Edge, n)
	for i, e := range edges {
		shards[i%n] = append(shards[i%n], e)
	}
	return shards
}
