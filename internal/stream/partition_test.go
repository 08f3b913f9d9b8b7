package stream

import (
	"testing"
	"testing/quick"
)

func makeFeasible(users, items []uint8) []Edge {
	// Builds a feasible stream: insert each unique (u, i) once, then
	// delete a deterministic subset.
	var out []Edge
	seen := map[[2]uint8]bool{}
	n := len(users)
	if len(items) < n {
		n = len(items)
	}
	for idx := 0; idx < n; idx++ {
		key := [2]uint8{users[idx], items[idx]}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Edge{User: User(users[idx]), Item: Item(items[idx]), Op: Insert})
	}
	for idx, e := range out {
		if idx%3 == 0 {
			out = append(out, Edge{User: e.User, Item: e.Item, Op: Delete})
		}
	}
	return out
}

func TestPartitionByUserShardsFeasible(t *testing.T) {
	err := quick.Check(func(users, items []uint8) bool {
		edges := makeFeasible(users, items)
		shards := PartitionByUser(edges, 4, 9)
		total := 0
		for _, s := range shards {
			if Validate(s) != nil {
				return false
			}
			total += len(s)
		}
		return total == len(edges)
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestPartitionByUserConsistent(t *testing.T) {
	edges := makeFeasible([]uint8{1, 2, 3, 1, 2, 3, 4}, []uint8{1, 2, 3, 4, 5, 6, 7})
	shards := PartitionByUser(edges, 3, 5)
	owner := map[User]int{}
	for si, shard := range shards {
		for _, e := range shard {
			if prev, ok := owner[e.User]; ok && prev != si {
				t.Fatalf("user %d in shards %d and %d", e.User, prev, si)
			}
			owner[e.User] = si
		}
	}
}

func TestPartitionPreservesPerShardOrder(t *testing.T) {
	edges := []Edge{
		{1, 10, Insert}, {1, 11, Insert}, {1, 10, Delete},
	}
	shards := PartitionByUser(edges, 2, 1)
	var shard []Edge
	for _, s := range shards {
		if len(s) > 0 {
			shard = s
		}
	}
	if len(shard) != 3 || shard[0] != edges[0] || shard[2] != edges[2] {
		t.Errorf("order not preserved: %v", shard)
	}
}

func TestShardOfAgreesWithPartition(t *testing.T) {
	edges := makeFeasible([]uint8{1, 2, 3, 4, 5, 250, 7}, []uint8{1, 2, 3, 4, 5, 6, 7})
	const n, seed = 5, 42
	shards := PartitionByUser(edges, n, seed)
	for si, shard := range shards {
		for _, e := range shard {
			if got := ShardOf(e.User, n, seed); got != si {
				t.Fatalf("ShardOf(%d) = %d but PartitionByUser placed it in %d", e.User, got, si)
			}
		}
	}
	// Different seeds should (generically) route differently somewhere.
	diff := false
	for u := User(0); u < 64; u++ {
		if ShardOf(u, n, 1) != ShardOf(u, n, 2) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("ShardOf ignored its seed")
	}
}

func TestShardOfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ShardOf(1, 0, 1)
}

func TestRoundRobin(t *testing.T) {
	edges := makeFeasible([]uint8{1, 2, 3, 4, 5, 6}, []uint8{1, 2, 3, 4, 5, 6})
	shards := RoundRobin(edges, 3)
	got := 0
	for _, s := range shards {
		got += len(s)
	}
	if got != len(edges) {
		t.Errorf("lost elements: %d vs %d", got, len(edges))
	}
	for i, e := range edges {
		if shards[i%3][i/3] != e {
			t.Fatalf("element %d misplaced", i)
		}
	}
}

func TestPartitionPanicsOnBadN(t *testing.T) {
	for name, fn := range map[string]func(){
		"partition": func() { PartitionByUser(nil, 0, 1) },
		"rr":        func() { RoundRobin(nil, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
