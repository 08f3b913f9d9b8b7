package poscache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/vossketch/vos/internal/stream"
)

// Cache is a bounded, thread-safe LRU from user to position table.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[stream.User]*list.Element
	order   *list.List // front = most recently used

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type entry struct {
	user stream.User
	ver  uint64
	pos  []uint64
	// aux is an opaque caller value stored alongside the table; the
	// recovered-sketch path keeps the packed popcount here so a cache hit
	// skips recounting k bits. Position tables leave it zero.
	aux uint64
}

// New creates a cache holding the position tables of up to capacity users.
// capacity must be positive. Each table costs k·8 bytes (k = SketchBits),
// so total memory is bounded by capacity·k·8 bytes — size accordingly: at
// the paper's k = 6400 a table is 50 KiB, so 256 entries ≈ 12.5 MiB.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic("poscache: capacity must be positive")
	}
	// No capacity hint: many sketches (every engine snapshot, every
	// experiment run) carry a cache that never fills, and pre-sized
	// buckets would tax each of them up front.
	return &Cache{
		cap:     capacity,
		entries: make(map[stream.User]*list.Element),
		order:   list.New(),
	}
}

// Len returns the number of cached users.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Get returns user u's cached position table and marks it most recently
// used. The returned slice is shared and must not be modified.
func (c *Cache) Get(u stream.User) ([]uint64, bool) {
	pos, _, ok := c.GetVersioned(u, 0)
	return pos, ok
}

// Put stores user u's position table, evicting the least recently used
// entry when the cache is full. The slice is retained; the caller must not
// modify it afterwards. Re-putting an existing user refreshes recency and
// replaces the table (the tables are equal anyway — positions are a pure
// function of the user).
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
	el, ok := c.entries[u]
	if !ok || el.Value.(*entry).ver != ver {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, 0, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*entry)
	pos, aux := e.pos, e.aux
	c.mu.Unlock()
	c.hits.Add(1)
	return pos, aux, true
}

// PutVersioned stores user u's table and an opaque aux value under a
// version stamp, evicting the least recently used entry when the cache is
// full. The slice is retained; the caller must not modify it afterwards.
// Re-putting an existing user refreshes recency and replaces table, stamp,
// and aux.
func (c *Cache) PutVersioned(u stream.User, ver uint64, pos []uint64, aux uint64) {
	c.mu.Lock()
	if el, ok := c.entries[u]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*entry)
		e.ver, e.pos, e.aux = ver, pos, aux
		c.mu.Unlock()
		return
	}
	evicted := false
	if c.order.Len() >= c.cap {
		back := c.order.Back()
		delete(c.entries, back.Value.(*entry).user)
		c.order.Remove(back)
		evicted = true
	}
	c.entries[u] = c.order.PushFront(&entry{user: u, ver: ver, pos: pos, aux: aux})
	c.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
	}
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
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Len:       c.Len(),
		Cap:       c.cap,
	}
}
