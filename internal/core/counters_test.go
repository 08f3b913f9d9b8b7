package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/vossketch/vos/internal/stream"
)

// The counter table is checked against the structure it replaced: every
// operation is applied to a map[stream.User]int64 under the sketch's pruning
// rule (no zero is stored) and the two must agree on every read.

// counterTestSeed fixes the home slots, so that lastSlotKeys can aim at one.
const counterTestSeed = 0x5eed

// counterModel is the reference: the table's contract in a dozen lines.
type counterModel map[stream.User]int64

func (m counterModel) bump(u stream.User, d int64) {
	if c := m[u] + d; c == 0 {
		delete(m, u)
	} else {
		m[u] = c
	}
}

// checkCounters compares the whole table with the model — iteration yields
// exactly the model's entries, each once — and checks the linear-probing
// invariant: every slot from a key's home to where it sits is occupied, so a
// probe for it cannot stop early at a hole.
func checkCounters(t testing.TB, c *counters, model counterModel) {
	t.Helper()
	if len(c.slots)&(len(c.slots)-1) != 0 || c.mask != uint64(len(c.slots)-1) {
		t.Fatalf("table of %d slots, mask %#x", len(c.slots), c.mask)
	}
	if 3*c.live > 2*len(c.slots) {
		t.Fatalf("load %d/%d is past 2/3", c.live, len(c.slots))
	}
	seen := 0
	for u, n := range c.all {
		seen++
		if want, ok := model[u]; !ok || want != n {
			t.Fatalf("iteration yields (%d, %d), model holds %d (present %v)", u, n, want, ok)
		}
	}
	if seen != len(model) || c.live != len(model) {
		t.Fatalf("iteration yields %d entries, live = %d, model holds %d", seen, c.live, len(model))
	}
	for i, s := range c.slots {
		if s.n == 0 {
			if s.user != 0 {
				t.Fatalf("empty slot %d keeps user %d", i, s.user)
			}
			continue
		}
		for j := c.home(s.user); j != uint64(i); j = (j + 1) & c.mask {
			if c.slots[j].n == 0 {
				t.Fatalf("user %d sits at slot %d, past a hole at %d on the way from its home slot %d", s.user, i, j, c.home(s.user))
			}
		}
	}
}

// lastSlotKeys returns n keys whose home slot, under counterTestSeed, is the
// last one of a table of the given size or of any smaller one: probes for
// them, and the backward shifts their removals start, wrap past the end.
func lastSlotKeys(n, slots int) []stream.User {
	c := newCounters(counterTestSeed)
	c.mask = uint64(slots - 1)
	keys := make([]stream.User, 0, n)
	for u := stream.User(1); len(keys) < n; u++ {
		if c.home(u) == c.mask {
			keys = append(keys, u)
		}
	}
	return keys
}

// TestCountersMatchMap is the model-based differential: 200,000 seeded
// operations for each key population, deltas of ±1 to ±3 — so counters pass
// through zero (removed, later re-inserted) and into negative counts — with
// get and the live count checked after every operation and the whole table
// every 1,000.
func TestCountersMatchMap(t *testing.T) {
	const ops = 200_000
	random := make([]stream.User, 3000)
	rng := rand.New(rand.NewSource(11))
	for i := range random {
		random[i] = stream.User(rng.Uint64())
	}
	for _, pop := range []struct {
		name string
		key  func(*rand.Rand) stream.User
	}{
		{"small dense ids", func(r *rand.Rand) stream.User { return stream.User(r.Intn(3000)) }},
		{"multiples of 2^32", func(r *rand.Rand) stream.User { return stream.User(r.Intn(3000)) << 32 }},
		{"random 64-bit", func(r *rand.Rand) stream.User { return random[r.Intn(len(random))] }},
		// 40 keys that all start at the last slot of the 64-slot table they
		// fit in (and of the smaller ones it grows through).
		{"one home slot, the last", func() func(*rand.Rand) stream.User {
			keys := lastSlotKeys(40, 64)
			return func(r *rand.Rand) stream.User { return keys[r.Intn(len(keys))] }
		}()},
	} {
		t.Run(pop.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			c, model := newCounters(counterTestSeed), counterModel{}
			for op := 1; op <= ops; op++ {
				u := pop.key(rng)
				d := int64(1 + rng.Intn(3))
				if rng.Intn(2) == 0 {
					d = -d
				}
				c.bump(u, d)
				model.bump(u, d)
				if got, want := c.get(u), model[u]; got != want {
					t.Fatalf("op %d: get(%d) = %d after bump by %d, model holds %d", op, u, got, d, want)
				}
				if c.live != len(model) {
					t.Fatalf("op %d: live = %d, model holds %d", op, c.live, len(model))
				}
				if op%1000 == 0 {
					checkCounters(t, &c, model)
				}
			}
		})
	}
}

// TestCountersGrowth inserts through five doublings in one run, then removes
// every entry: the table keeps its capacity, is empty, and still answers.
func TestCountersGrowth(t *testing.T) {
	c, model := newCounters(counterTestSeed), counterModel{}
	doublings, size := 0, len(c.slots)
	for u := stream.User(0); u < 200; u++ {
		c.bump(u, int64(u)+1)
		model.bump(u, int64(u)+1)
		if len(c.slots) != size {
			if len(c.slots) != 2*size {
				t.Fatalf("table went from %d to %d slots", size, len(c.slots))
			}
			doublings, size = doublings+1, len(c.slots)
			checkCounters(t, &c, model)
		}
	}
	if doublings < 3 {
		t.Fatalf("%d doublings, want at least 3", doublings)
	}
	checkCounters(t, &c, model)
	for u := stream.User(0); u < 200; u++ {
		c.bump(u, -int64(u)-1)
	}
	checkCounters(t, &c, counterModel{})
	if len(c.slots) != size {
		t.Fatalf("emptied table has %d slots, had %d", len(c.slots), size)
	}

	// reserve sizes for the whole demand at once, and insert refuses a user
	// the table holds.
	c.reserve(1000)
	if got := len(c.slots); got != 2048 {
		t.Fatalf("reserve(1000) on an empty table: %d slots, want 2048", got)
	}
	if !c.insert(7, -2) || c.insert(7, 5) || c.get(7) != -2 || c.live != 1 {
		t.Fatalf("insert twice: get(7) = %d, live = %d", c.get(7), c.live)
	}
	c.clear()
	checkCounters(t, &c, counterModel{})
	if len(c.slots) != 2048 {
		t.Fatalf("clear changed the capacity to %d", len(c.slots))
	}
}

// TestCountersBumpAllMatchesBump: a block goes through bumpAll as it would
// through bump edge by edge — repeats inside the block, zero crossings, users
// the table has not seen.
func TestCountersBumpAllMatchesBump(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	one, blk := newCounters(counterTestSeed), newCounters(counterTestSeed)
	model := counterModel{}
	for round := 0; round < 200; round++ {
		edges := make([]stream.Edge, 1+rng.Intn(blockLen))
		for i := range edges {
			edges[i] = stream.Edge{User: stream.User(rng.Intn(400)), Op: stream.Op(rng.Intn(2))}
		}
		for _, e := range edges {
			one.bump(e.User, opDelta(e.Op))
			model.bump(e.User, opDelta(e.Op))
		}
		blk.bumpAll(edges)
		checkCounters(t, &one, model)
		checkCounters(t, &blk, model)
	}
}

// FuzzCounters drives the table and the model with (op, key, delta) records
// of ten bytes. The key byte pair indexes a small population that includes
// the keys sharing the last home slot, so that the fuzzer reaches collisions
// and wrap-around without having to invert the hash.
func FuzzCounters(f *testing.F) {
	keys := append(lastSlotKeys(16, 32), 0, 1, 2, 3, 1<<32, 2<<32, 3<<32, ^stream.User(0))
	rec := func(op byte, key uint64, delta int8) []byte {
		b := []byte{op, byte(delta)}
		return binary.LittleEndian.AppendUint64(b, key)
	}
	var up, cross []byte
	for i := 0; i < 40; i++ {
		up = append(up, rec(0, uint64(i), 1)...)
		cross = append(cross, rec(0, uint64(i%5), 1)...)
		cross = append(cross, rec(0, uint64(i%5), -1)...)
	}
	f.Add(up)
	f.Add(cross)
	f.Add(append(append(rec(2, 5, 3), rec(2, 5, 4)...), rec(3, 0, 0)...))
	f.Add(append(rec(1, 0, 0), rec(4, 0, 100)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, model := newCounters(counterTestSeed), counterModel{}
		for ; len(data) >= 10; data = data[10:] {
			k := binary.LittleEndian.Uint64(data[2:])
			u := stream.User(k)
			if k>>16 == 0 {
				u = keys[int(k)%len(keys)]
			}
			d := int64(int8(data[1]))
			switch data[0] % 5 {
			case 0: // bump
				c.bump(u, d)
				model.bump(u, d)
			case 1: // a block of one user's edges, alternating from op d&1
				edges := make([]stream.Edge, k%7)
				for i := range edges {
					edges[i] = stream.Edge{User: u, Op: stream.Op((int(d) + i) & 1)}
					model.bump(u, opDelta(edges[i].Op))
				}
				c.bumpAll(edges)
			case 2: // insert, refused when present
				_, held := model[u]
				if d == 0 {
					d = 1
				}
				if c.insert(u, d) == held {
					t.Fatalf("insert(%d) = %v with the user held: %v", u, !held, held)
				}
				if !held {
					model[u] = d
				}
			case 3:
				c.clear()
				clear(model)
			case 4:
				c.reserve(int(uint8(d)))
			}
			if got, want := c.get(u), model[u]; got != want {
				t.Fatalf("get(%d) = %d, model holds %d", u, got, want)
			}
		}
		checkCounters(t, &c, model)
	})
}
