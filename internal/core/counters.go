package core

import (
	"math/rand/v2"

	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// counters is the per-user cardinality table n_u: one flat open-addressed
// hash table of 16-byte slots with linear probing. An update is the fourth
// step of the paper's O(1) edge (hash, hash, flip, count); through a Go map
// it is the dearest of the four, two walks of a Swiss table an edge, where
// this is one multiply-mix and, for a user at its home slot, one cache line.
//
// A slot with n == 0 is empty — the sketch stores no zero counter (bump
// prunes on both ops, UnmarshalVOS rejects one), so the count is its own
// occupancy mark. Entries are removed by backward shift, so a churn stream
// whose counters keep crossing zero leaves no tombstones behind and a probe
// never walks further than the live run it is in. The table doubles before
// an insertion could take it past 2/3 load and never shrinks.
//
// Like the rest of a sketch it has one writer; get and all only read and may
// run concurrently with each other.
type counters struct {
	slots []counterSlot // power-of-two length, never empty
	mask  uint64        // len(slots) − 1
	live  int           // occupied slots
	seed  uint64        // see counterSeed
	// touched receives what bumpAll's first pass loaded, so that the compiler
	// keeps the pass. A field rather than a package-level sink: shard workers
	// run bumpAll side by side, each on its own table.
	touched int64
}

type counterSlot struct {
	user stream.User
	n    int64
}

// counterSeed perturbs every table's home slots and is drawn once per
// process, as a Go map's hash seed is. User ids arrive from the network: under
// a fixed hash a client who chooses its ids could put every probe into one
// run.
var counterSeed = rand.Uint64()

// minCounterSlots is the size a table starts at.
const minCounterSlots = 8

func newCounters(seed uint64) counters {
	return counters{slots: make([]counterSlot, minCounterSlots), mask: minCounterSlots - 1, seed: seed}
}

// home returns the slot u's probe starts at.
func (t *counters) home(u stream.User) uint64 {
	return hashing.Mix64(uint64(u)^t.seed) & t.mask
}

// get returns n_u, 0 for a user the table does not hold.
func (t *counters) get(u stream.User) int64 {
	for i := t.home(u); ; i = (i + 1) & t.mask {
		if s := t.slots[i]; s.n == 0 || s.user == u {
			return s.n
		}
	}
}

// all calls yield for every live entry in slot order — unspecified to callers,
// since the seed moves it from process to process — until yield returns false.
// It is a range-over-func iterator; the body must not write the table.
func (t *counters) all(yield func(stream.User, int64) bool) {
	for _, s := range t.slots {
		if s.n != 0 && !yield(s.user, s.n) {
			return
		}
	}
}

// reserve makes room for extra more entries, so that the next extra
// insertions neither grow the table (home slots computed now stay valid) nor
// take it past 2/3 load (every probe ends at an empty slot).
func (t *counters) reserve(extra int) {
	if need := t.live + extra; 3*need > 2*len(t.slots) {
		t.grow(need)
	}
}

// grow rehashes into the smallest doubling that holds need entries at no
// more than 2/3 load.
func (t *counters) grow(need int) {
	n := len(t.slots)
	for 3*need > 2*n {
		n *= 2
	}
	old := t.slots
	t.slots, t.mask, t.live = make([]counterSlot, n), uint64(n-1), 0
	for _, s := range old {
		if s.n != 0 {
			t.insert(s.user, s.n) // has room: reserves nothing, so does not come back here
		}
	}
}

// bump adjusts n_u by d. A user whose subscriptions all cancelled out holds
// no sketch state at all; removing the entry keeps the table proportional to
// active users on long-running streams. The prune fires on both ops so sketch
// state is fully order-independent: under sharded ingestion a user's delete
// may be applied before the matching insert (counter goes −1 then back to 0),
// and the insert must erase the entry too.
func (t *counters) bump(u stream.User, d int64) {
	t.reserve(1)
	t.bumpFrom(t.home(u), u, d)
}

// bumpFrom is bump probing from u's home slot h, for a caller that has
// reserved room.
func (t *counters) bumpFrom(h uint64, u stream.User, d int64) {
	for i := h; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.user == u && s.n != 0 {
			if s.n += d; s.n == 0 {
				t.remove(i)
			}
			return
		}
		if s.n == 0 {
			if d != 0 {
				*s = counterSlot{user: u, n: d}
				t.live++
			}
			return
		}
	}
}

// bumpAll applies one block of at most blockLen edges, ±1 each — what
// bitset.FlipAll is to the array. Room for the whole block is made first, so
// the table cannot grow inside it; a branch-free pass then computes every
// edge's home slot and loads it, so that the block's cache misses overlap
// instead of each waiting behind the previous edge's probe; the second pass
// probes lines that are by then in L1.
func (t *counters) bumpAll(edges []stream.Edge) {
	t.reserve(len(edges))
	var homes [blockLen]uint64
	var touched int64
	for i, e := range edges {
		h := t.home(e.User)
		homes[i] = h
		touched += t.slots[h].n
	}
	t.touched = touched
	for i, e := range edges {
		t.bumpFrom(homes[i], e.User, opDelta(e.Op))
	}
}

// insert stores n ≠ 0 for a user the table does not hold yet; it reports
// false, and stores nothing, when it already holds u.
func (t *counters) insert(u stream.User, n int64) bool {
	t.reserve(1)
	for i := t.home(u); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.n == 0 {
			*s = counterSlot{user: u, n: n}
			t.live++
			return true
		}
		if s.user == u {
			return false
		}
	}
}

// remove empties slot i by backward shift: every later entry of the run that
// the hole would cut off from its home slot moves back into the hole, which
// travels on until the run ends. The run wraps past the end of the table.
func (t *counters) remove(i uint64) {
	for j := (i + 1) & t.mask; t.slots[j].n != 0; j = (j + 1) & t.mask {
		// slots[j] may move to i when i lies on its probe path, i.e. when it
		// sits at least as far from its home slot as from the hole.
		if (j-t.home(t.slots[j].user))&t.mask >= (j-i)&t.mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = counterSlot{}
	t.live--
}

// clear empties the table in place, capacity kept.
func (t *counters) clear() {
	clear(t.slots)
	t.live = 0
}

// copyFrom makes t hold src's entries, slot for slot: a copy, not a rehash.
// t's storage is reused when it can hold src's slots.
func (t *counters) copyFrom(src *counters) {
	if cap(t.slots) < len(src.slots) {
		t.slots = make([]counterSlot, len(src.slots))
	}
	t.slots = t.slots[:len(src.slots)]
	copy(t.slots, src.slots)
	t.mask, t.live, t.seed = src.mask, src.live, src.seed
}
