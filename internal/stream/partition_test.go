package stream

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/vossketch/vos/internal/cpu"
	"github.com/vossketch/vos/internal/hashing"
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

// checkPartition holds shards to ShardOf: shard i is the edges ShardOf puts
// there, in arrival order, ending at its capacity, and nil when there are none.
func checkPartition(t *testing.T, edges []Edge, shards [][]Edge, n int, seed uint64) {
	t.Helper()
	if len(shards) != n {
		t.Fatalf("n=%d: %d shards", n, len(shards))
	}
	next := make([]int, n)
	for k, e := range edges {
		i := ShardOf(e.User, n, seed)
		if next[i] >= len(shards[i]) || shards[i][next[i]] != e {
			t.Fatalf("n=%d seed=%#x: edge %d (user %#x) is not next in its shard %d", n, seed, k, e.User, i)
		}
		next[i]++
	}
	for i, s := range shards {
		if len(s) != next[i] || cap(s) != len(s) || (s == nil) != (next[i] == 0) {
			t.Fatalf("n=%d seed=%#x: shard %d holds %d edges (cap %d), want %d", n, seed, i, len(s), cap(s), next[i])
		}
	}
}

// vectorOwners runs the owner pass's vector body over edges and returns how
// many owners it set: every one must be ShardOf's.
func vectorOwners(t *testing.T, edges []Edge, n, seed uint64) int {
	t.Helper()
	owner := make([]uint32, len(edges))
	words := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(edges))), 3*len(edges))
	k := hashing.UsersToRange(owner, words, 3, seed, n)
	for j, e := range edges[:k] {
		if want := ShardOf(e.User, int(n), seed); int(owner[j]) != want {
			t.Fatalf("n=%d seed=%#x len=%d: edge %d (user %#x) owned by %d, ShardOf says %d",
				n, seed, len(edges), j, e.User, owner[j], want)
		}
	}
	return k
}

// Every batch length around the eight-edge steps of the owner pass, users at
// both ends of the range among full-width random ones, the shard counts the
// vector body reduces (up to 2³²−1) and those it leaves to the Go loop, and
// several seeds: every owner the body sets is ShardOf's, and on both bodies
// Partition puts each edge in ShardOf's shard in arrival order at the shard
// counts of a host or a ring.
func TestShardOfAgreesWithPartition(t *testing.T) {
	if unsafe.Sizeof(Edge{}) != 24 || unsafe.Offsetof(Edge{}.User) != 0 {
		t.Fatal("the owner pass reads an Edge as three words, user first")
	}
	rng := rand.New(rand.NewSource(46))
	ends := []User{0, MaxUser, MaxUser + 1, ^User(0)}
	edges := make([]Edge, 4096)
	for k := range edges {
		u := User(rng.Uint64())
		if k/8%2 == 0 { // every other step holds only ends, each lane every end in turn
			u = ends[(k+k/16)%len(ends)]
		}
		edges[k] = Edge{User: u, Item: Item(rng.Uint64()), Op: Op(rng.Intn(2))}
	}
	check := func(t *testing.T) {
		var p Partitioner
		for _, seed := range []uint64{0, 5, 42, ^uint64(0)} {
			for _, n := range []uint64{1, 2, 3, 4, 5, 8, 1 << 20, 1<<31 - 1, 1<<32 - 1, 1 << 32} {
				for _, l := range []int{0, 1, 7, 8, 9, 15, 16, 17, 255, 256, 4096} {
					batch := edges[:l]
					want := 0
					if cpu.AVX512 && n < 1<<32 {
						want = l &^ 7
					}
					if got := vectorOwners(t, batch, n, seed); got != want {
						t.Fatalf("n=%d len=%d: the body set %d owners, want %d", n, l, got, want)
					}
					if n <= 8 {
						checkPartition(t, batch, p.Partition(batch, int(n), seed), int(n), seed)
					}
				}
			}
		}
		// Past 2³² an owner needs more than a uint32: the body declines.
		if got := vectorOwners(t, edges[:8], 1<<32+7, 1); got != 0 {
			t.Fatalf("the body set %d owners at n = 2³²+7", got)
		}
	}
	t.Run("dispatched", check)
	defer cpu.GoLoopsOnly()()
	t.Run("go", check)
	// Different seeds should (generically) route differently somewhere.
	diff := false
	for u := User(0); u < 64; u++ {
		if ShardOf(u, 5, 1) != ShardOf(u, 5, 2) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("ShardOf ignored its seed")
	}
}

// FuzzPartition holds Partition to ShardOf on both bodies: every edge in its
// owner's shard, in arrival order, no edge lost or added. The users are the
// input's words; the vector body is also checked alone at a 32-bit shard count.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{}, uint16(1), uint32(7), uint64(0))
	f.Add(make([]byte, 8*9), uint16(2), uint32(1<<32-1), uint64(42))
	f.Add(bytes.Repeat([]byte{0xff}, 8*17), uint16(4), uint32(1<<31-1), ^uint64(0))
	f.Add(bytes.Repeat([]byte{0x5a}, 8*64+3), uint16(999), uint32(3), uint64(9))
	f.Fuzz(func(t *testing.T, users []byte, n uint16, wide uint32, seed uint64) {
		edges := make([]Edge, len(users)/8)
		for k := range edges {
			edges[k] = Edge{User: User(binary.LittleEndian.Uint64(users[8*k:])), Item: Item(k), Op: Op(k & 1)}
		}
		check := func(t *testing.T) {
			checkPartition(t, edges, new(Partitioner).Partition(edges, int(n)+1, seed), int(n)+1, seed)
			vectorOwners(t, edges, uint64(wide)+1, seed)
		}
		t.Run("dispatched", check)
		defer cpu.GoLoopsOnly()()
		t.Run("go", check)
	})
}

// BenchmarkPartition times Partition of one 4,096-edge batch into 2 and 4
// shards, the users Zipf(1.6, 8) over 20,000 as in embed-churn: "dispatched"
// finds the owners with the vector body where the CPU has it, "go" with the
// Go loop alone.
func BenchmarkPartition(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.6, 8, 20000-1)
	edges := make([]Edge, 4096)
	for k := range edges {
		edges[k] = Edge{User: User(zipf.Uint64()), Item: Item(rng.Intn(1 << 16)), Op: Op(rng.Intn(2))}
	}
	for _, body := range []string{"dispatched", "go"} {
		for _, n := range []int{2, 4} {
			b.Run(fmt.Sprintf("%s/n=%d", body, n), func(b *testing.B) {
				if body == "go" {
					defer cpu.GoLoopsOnly()()
				}
				var p Partitioner
				for i := 0; i < b.N; i++ {
					p.Partition(edges, n, 7)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
			})
		}
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
