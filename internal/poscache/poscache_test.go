package poscache

import (
	"sync"
	"testing"

	"github.com/vossketch/vos/internal/stream"
)

func table(v uint64) []uint64 { return []uint64{v, v + 1, v + 2} }

func TestGetPutHitMiss(t *testing.T) {
	c := New(4)
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put(1, table(10))
	pos, ok := c.Get(1)
	if !ok || pos[0] != 10 {
		t.Fatalf("Get(1) = %v, %v", pos, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 || st.Len != 1 || st.Cap != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictionOrderIsLRU(t *testing.T) {
	c := New(3)
	c.Put(1, table(1))
	c.Put(2, table(2))
	c.Put(3, table(3))
	// Touch 1 so 2 becomes the least recently used.
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 should be cached")
	}
	c.Put(4, table(4)) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted (LRU)")
	}
	for _, u := range []stream.User{1, 3, 4} {
		if _, ok := c.Get(u); !ok {
			t.Fatalf("%d should be cached", u)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Len != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRePutRefreshesRecency(t *testing.T) {
	c := New(2)
	c.Put(1, table(1))
	c.Put(2, table(2))
	c.Put(1, table(100)) // refresh 1: now 2 is LRU
	c.Put(3, table(3))   // evicts 2
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	pos, ok := c.Get(1)
	if !ok || pos[0] != 100 {
		t.Fatalf("re-Put did not replace the table: %v, %v", pos, ok)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := New(8)
	for u := stream.User(0); u < 100; u++ {
		c.Put(u, table(uint64(u)))
		if c.Len() > 8 {
			t.Fatalf("len %d exceeds cap 8", c.Len())
		}
	}
	if st := c.Stats(); st.Len != 8 || st.Evictions != 92 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for capacity 0")
		}
	}()
	New(0)
}

// TestConcurrentAccess races readers and writers; run under -race it pins
// the thread-safety contract the parallel top-K path relies on.
func TestConcurrentAccess(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				u := stream.User((g*31 + i) % 64)
				if pos, ok := c.Get(u); ok {
					if pos[0] != uint64(u) {
						t.Errorf("user %d got table %v", u, pos)
						return
					}
				} else {
					c.Put(u, table(uint64(u)))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("len %d exceeds cap", c.Len())
	}
}

func TestVersionedEntriesInvalidateOnStamp(t *testing.T) {
	c := New(4)
	c.PutVersioned(1, 7, table(70), 7000)
	if _, _, ok := c.GetVersioned(1, 8); ok {
		t.Fatal("stale version stamp must miss")
	}
	pos, aux, ok := c.GetVersioned(1, 7)
	if !ok || pos[0] != 70 || aux != 7000 {
		t.Fatalf("matching stamp: %v, aux=%d, %v", pos, aux, ok)
	}
	// Re-put under a newer stamp replaces table, stamp, and aux in place.
	c.PutVersioned(1, 8, table(80), 8000)
	if _, _, ok := c.GetVersioned(1, 7); ok {
		t.Fatal("old stamp must miss after re-put")
	}
	if pos, aux, ok := c.GetVersioned(1, 8); !ok || pos[0] != 80 || aux != 8000 {
		t.Fatalf("new stamp: %v, aux=%d, %v", pos, aux, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("re-put duplicated the entry: len=%d", c.Len())
	}
}

func TestVersionedAndPlainEntriesCoexist(t *testing.T) {
	// Plain Get/Put is stamp 0; a versioned store for the same user in a
	// DIFFERENT cache is the normal usage, but within one cache the stamp
	// namespace is shared — last put wins.
	c := New(2)
	c.Put(1, table(1))
	if pos, _, ok := c.GetVersioned(1, 0); !ok || pos[0] != 1 {
		t.Fatalf("plain put invisible to stamp 0: %v %v", pos, ok)
	}
}

// TestClockSecondChance pins what CLOCK keeps: an entry hit since the hand
// last passed it survives a Put on a full cache, one hit only before the
// hand cleared it does not, and a user hit between every Put stays
// resident however long a scan of new users runs.
func TestClockSecondChance(t *testing.T) {
	c := New(3)
	c.Put(1, table(1))
	c.Put(2, table(2))
	c.Put(3, table(3))
	c.Get(1)
	c.Put(4, table(4)) // the hand clears 1, evicts 2 and stops at 3
	c.Get(3)
	c.Put(5, table(5)) // the hand clears 3, evicts 1 (its hit is spent)
	for u, want := range map[stream.User]bool{1: false, 2: false, 3: true, 4: true, 5: true} {
		if _, ok := c.Get(u); ok != want {
			t.Errorf("user %d resident = %v, want %v", u, ok, want)
		}
	}

	const capacity, hot = 8, stream.User(1 << 40)
	c = New(capacity)
	c.Put(hot, table(7))
	for u := stream.User(0); u < 2*capacity; u++ {
		if pos, ok := c.Get(hot); !ok || pos[0] != 7 {
			t.Fatalf("hot user lost before scan put %d: %v, %v", u, pos, ok)
		}
		c.Put(u, table(uint64(u)))
	}
	if _, ok := c.Get(hot); !ok {
		t.Fatal("hot user lost at the end of the scan")
	}
	if st := c.Stats(); st.Evictions != 2*capacity+1-capacity || st.Len != capacity {
		t.Fatalf("stats = %+v", st)
	}
}

// FuzzCache runs a byte-driven sequence of Gets and Puts over a few users
// and stamps against a model of what was last put for each user: a hit
// returns exactly that table and aux under exactly that stamp, a resident
// user under its current stamp hits, a stale stamp never does, Len never
// passes the capacity, and Evictions counts exactly the Puts of a user
// not resident into a full cache.
func FuzzCache(f *testing.F) {
	f.Add([]byte{2, 1, 1, 0, 1, 2, 0, 0, 1, 0, 1, 3, 0, 0, 2, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 2, 0})
	f.Add([]byte{4, 1, 0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 1, 4, 0, 1, 5, 0, 0, 0, 0, 1, 6, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := int(ops[0])%5 + 1
		c := New(capacity)
		type put struct {
			ver, aux uint64
			pos      []uint64
		}
		model := map[stream.User]put{}
		var evictions, hits, misses uint64
		for i := 1; i+2 < len(ops); i += 3 {
			u, ver := stream.User(ops[i+1]%8), uint64(ops[i+2]%3)
			_, resident := c.index[u]
			last, putBefore := model[u]
			if ops[i]%2 == 0 {
				pos, aux, ok := c.GetVersioned(u, ver)
				switch {
				case ok && (!putBefore || last.ver != ver):
					t.Fatalf("op %d: user %d hit under stamp %d, last put under %d", i, u, ver, last.ver)
				case ok && (&pos[0] != &last.pos[0] || aux != last.aux):
					t.Fatalf("op %d: user %d hit returned %v/%d, last put %v/%d", i, u, pos, aux, last.pos, last.aux)
				case !ok && resident && last.ver == ver:
					t.Fatalf("op %d: resident user %d missed under its stamp %d", i, u, ver)
				}
				if ok {
					hits++
				} else {
					misses++
				}
			} else {
				if !resident && c.Len() == capacity {
					evictions++
				}
				p := put{ver: ver, aux: uint64(i), pos: []uint64{uint64(i)}}
				c.PutVersioned(u, ver, p.pos, p.aux)
				model[u] = p
				if _, ok := c.index[u]; !ok {
					t.Fatalf("op %d: user %d not resident after its Put", i, u)
				}
			}
			st := c.Stats()
			if st.Len > capacity || st.Evictions != evictions || st.Hits != hits || st.Misses != misses {
				t.Fatalf("op %d: stats %+v, want ≤%d entries, %d evictions, %d hits, %d misses", i, st, capacity, evictions, hits, misses)
			}
			if len(c.index) != len(c.slots) {
				t.Fatalf("op %d: %d indexed users, %d slots", i, len(c.index), len(c.slots))
			}
			for v, j := range c.index {
				if c.slots[j].user != v {
					t.Fatalf("op %d: user %d indexes slot %d, which holds %d", i, v, j, c.slots[j].user)
				}
			}
		}
	})
}
