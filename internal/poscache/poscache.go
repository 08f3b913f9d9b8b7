package poscache

import (
	"math"
	"sync"

	"github.com/vossketch/vos/internal/stream"
)

// Cache is a bounded, thread-safe CLOCK cache from user to table: the
// entries sit in a flat slot slice indexed by user, a hit sets its slot's
// reference bit, and a Put on a full cache sweeps a hand over the slots,
// clearing set bits, until it finds a clear one to replace. A hit is one
// map lookup and one store under the mutex; no entry is allocated or
// linked.
type Cache struct {
	mu    sync.Mutex
	cap   int
	index map[stream.User]int32
	slots []slot // len grows to cap, then stays
	hand  int    // the next slot a full cache's sweep looks at

	hits, misses, evictions uint64
}

type slot struct {
	user stream.User
	ver  uint64
	pos  []uint64
	// aux is an opaque caller value stored alongside the table; the
	// recovered-sketch path keeps the packed popcount here so a cache hit
	// skips recounting k bits. Position tables leave it zero.
	aux uint64
	// ref is set by a hit or a re-Put and cleared by the hand: a slot
	// the hand finds set gets a second chance.
	ref bool
}

// New creates a cache holding the position tables of up to capacity users
// (at most math.MaxInt32: a larger capacity is cut to that). capacity must
// be positive. Each table costs k·8 bytes (k = SketchBits), so total memory
// is bounded by capacity·k·8 bytes — size accordingly: at the paper's
// k = 6400 a table is 50 KiB, so 256 entries ≈ 12.5 MiB.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic("poscache: capacity must be positive")
	}
	// No capacity hint: many sketches (every engine snapshot, every
	// experiment run) carry a cache that never fills, and pre-sized
	// buckets would tax each of them up front.
	return &Cache{cap: min(capacity, math.MaxInt32), index: make(map[stream.User]int32)}
}

// Len returns the number of cached users.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// Get returns user u's cached position table and marks it referenced. The
// returned slice is shared and must not be modified.
func (c *Cache) Get(u stream.User) ([]uint64, bool) {
	pos, _, ok := c.GetVersioned(u, 0)
	return pos, ok
}

// Put stores user u's position table, evicting an entry not referenced
// since the hand last passed it when the cache is full. The slice is
// retained; the caller must not modify it afterwards. Re-putting an
// existing user marks it referenced and replaces the table (the tables are
// equal anyway — positions are a pure function of the user).
func (c *Cache) Put(u stream.User, pos []uint64) {
	c.PutVersioned(u, 0, pos, 0)
}

// GetVersioned returns user u's cached table — and the aux value stored
// with it — only when it was stored under the same version stamp; a stale
// entry counts as a miss (it stays until replaced or evicted — it can
// never hit again, because callers only look up the current version).
// Position tables are version-free: use Get, or equivalently a constant
// stamp of 0.
func (c *Cache) GetVersioned(u stream.User, ver uint64) ([]uint64, uint64, bool) {
	c.mu.Lock()
	i, ok := c.index[u]
	if !ok || c.slots[i].ver != ver {
		c.misses++
		c.mu.Unlock()
		return nil, 0, false
	}
	s := &c.slots[i]
	s.ref = true
	pos, aux := s.pos, s.aux
	c.hits++
	c.mu.Unlock()
	return pos, aux, true
}

// PutVersioned stores user u's table and an opaque aux value under a
// version stamp, evicting as Put does when the cache is full. The slice is
// retained; the caller must not modify it afterwards. Re-putting an
// existing user marks it referenced and replaces table, stamp, and aux; a
// new user goes in unreferenced, so a scan that never comes back passes
// through without displacing the entries that are hit.
func (c *Cache) PutVersioned(u stream.User, ver uint64, pos []uint64, aux uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[u]; ok {
		c.slots[i] = slot{user: u, ver: ver, pos: pos, aux: aux, ref: true}
		return
	}
	if len(c.slots) < c.cap {
		c.index[u] = int32(len(c.slots))
		c.slots = append(c.slots, slot{user: u, ver: ver, pos: pos, aux: aux})
		return
	}
	for c.slots[c.hand].ref {
		c.slots[c.hand].ref = false
		c.hand = (c.hand + 1) % c.cap
	}
	delete(c.index, c.slots[c.hand].user)
	c.index[u] = int32(c.hand)
	c.slots[c.hand] = slot{user: u, ver: ver, pos: pos, aux: aux}
	c.hand = (c.hand + 1) % c.cap
	c.evictions++
}

// Stats is a counter snapshot for monitoring cache effectiveness.
type Stats struct {
	// Hits and Misses count Get outcomes; a low hit rate on a serving
	// workload means the capacity is below the hot user set.
	Hits, Misses uint64
	// Evictions counts entries displaced by Put on a full cache.
	Evictions uint64
	// Len and Cap are the current and maximum entry counts.
	Len, Cap int
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       len(c.slots),
		Cap:       c.cap,
	}
}
