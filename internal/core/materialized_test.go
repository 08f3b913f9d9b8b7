package core

import (
	"math/bits"
	"sort"
	"testing"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/poscache"
	"github.com/vossketch/vos/internal/stream"
)

// materializedWorkload builds a dynamized multi-user sketch plus the list
// of users it contains, the shared fixture of the parity tests.
func materializedWorkload(t testing.TB, cfg Config) (*VOS, []stream.User) {
	t.Helper()
	v := MustNew(cfg)
	p := gen.YouTube
	p.Users = 80
	p.Items = 400
	p.Edges = 4000
	base := gen.Bipartite(p, 21)
	for _, e := range gen.Dynamize(base, gen.PaperDynamize(len(base), 22)) {
		v.Process(e)
	}
	users := make([]stream.User, 0, 80)
	for u := stream.User(0); u < 80; u++ {
		users = append(users, u)
	}
	return v, users
}

// TestQueryParityPerBitVsMaterialized pins the tentpole invariant: the
// packed word-level read path and the scalar per-bit path compute α from
// the same recovered bits, so every field of every estimate — including
// clamps and the Saturated flag — must be bit-identical, across every
// cache configuration (none, position cache, recovered-sketch cache).
func TestQueryParityPerBitVsMaterialized(t *testing.T) {
	v, users := materializedWorkload(t, Config{MemoryBits: 1 << 16, SketchBits: 512, Seed: 9})
	check := func(label string, probes, candidates []stream.User) {
		t.Helper()
		for _, u := range probes {
			for _, w := range candidates {
				ref := v.QueryPerBit(u, w)
				if got := v.Query(u, w); got != ref {
					t.Fatalf("%s: Query(%d,%d) = %+v, per-bit %+v", label, u, w, got, ref)
				}
			}
		}
	}
	v.SetRecoveredCacheCapacity(-1) // isolate the gather path first
	check("no caches", users[:20], users)

	// Position cache smaller than the user set: the full sweep exercises
	// misses and evictions, the narrow sweep repeat-queries a window that
	// fits so hits occur too.
	pc := poscache.New(16)
	v.SetPositionCache(pc)
	check("poscache cold", users[:20], users)
	check("poscache narrow", users[:4], users[:10])
	st := pc.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("cache exercised no hit/miss/eviction paths: %+v", st)
	}

	// Recovered-sketch cache on top: repeat sweeps serve from packed words.
	v.SetRecoveredCacheCapacity(0)
	check("rec cold", users[:20], users)
	check("rec warm", users[:20], users)
	if rst, ok := v.RecoveredCacheStats(); !ok || rst.Hits == 0 {
		t.Fatalf("warm sweep never hit the recovered-sketch cache: %+v", rst)
	}
}

// TestRecoveredCacheInvalidatedByWrites pins the version stamping: a write
// between queries must invalidate cached recovered sketches — both
// Process and Merge — so the materialized path never serves stale bits.
func TestRecoveredCacheInvalidatedByWrites(t *testing.T) {
	v, users := materializedWorkload(t, Config{MemoryBits: 1 << 16, SketchBits: 512, Seed: 9})
	v.SetPositionCache(poscache.New(128))
	parity := func(label string) {
		t.Helper()
		for _, u := range users[:10] {
			for _, w := range users[:30] {
				if got, ref := v.Query(u, w), v.QueryPerBit(u, w); got != ref {
					t.Fatalf("%s: Query(%d,%d) = %+v, per-bit %+v", label, u, w, got, ref)
				}
			}
		}
	}
	parity("warm-up")
	parity("cached")
	// Flip bits of users the cache has definitely served.
	for i := 0; i < 40; i++ {
		v.Process(stream.Edge{User: users[i%10], Item: stream.Item(9000 + i), Op: stream.Insert})
	}
	parity("after Process")
	other := MustNew(v.Config())
	for i := 0; i < 40; i++ {
		other.Process(stream.Edge{User: users[i%10], Item: stream.Item(9500 + i), Op: stream.Insert})
	}
	if err := v.Merge(other); err != nil {
		t.Fatal(err)
	}
	parity("after Merge")
}

// TestSharedRecoveredCache pins the sharing rule of ShareRecoveredCache:
// two sketches of different state serve from one cache under distinct
// stamps without ever answering for each other, and a sharer that is
// written and then re-stamped stops seeing what it cached before the write.
func TestSharedRecoveredCache(t *testing.T) {
	cfg := Config{MemoryBits: 1 << 16, SketchBits: 512, Seed: 9}
	a, users := materializedWorkload(t, cfg)
	b := MustNew(cfg)
	for i, u := range users[:30] {
		b.Process(stream.Edge{User: u, Item: stream.Item(7000 + i), Op: stream.Insert})
	}
	shared := poscache.New(64)
	a.ShareRecoveredCache(shared, 1)
	b.ShareRecoveredCache(shared, 2)
	parity := func(label string) {
		t.Helper()
		for _, v := range []*VOS{a, b, a, b} { // alternate: each pass overwrites the other's entries
			for _, u := range users[:10] {
				for _, w := range users[:30] {
					if got, ref := v.Query(u, w), v.QueryPerBit(u, w); got != ref {
						t.Fatalf("%s: Query(%d,%d) = %+v, per-bit %+v", label, u, w, got, ref)
					}
				}
			}
		}
	}
	parity("two sharers")
	for i := 0; i < 40; i++ {
		a.Process(stream.Edge{User: users[i%10], Item: stream.Item(9000 + i), Op: stream.Insert})
	}
	a.ShareRecoveredCache(shared, 3) // one write moved a's version onto b's stamp
	parity("after a write and a re-stamp")
	if st := shared.Stats(); st.Hits == 0 {
		t.Fatalf("the shared cache never served a hit: %+v", st)
	}
}

// TestQueryParitySaturated drives a deliberately overloaded sketch (tiny
// array, long stream) so α/β clamping engages, and requires parity there
// too — the clamp is part of the estimator both paths share.
func TestQueryParitySaturated(t *testing.T) {
	v, users := materializedWorkload(t, Config{MemoryBits: 1 << 10, SketchBits: 64, Seed: 9})
	sawSaturated := false
	for _, u := range users[:20] {
		for _, w := range users {
			ref := v.QueryPerBit(u, w)
			if ref.Saturated {
				sawSaturated = true
			}
			if got := v.Query(u, w); got != ref {
				t.Fatalf("Query(%d,%d) = %+v, per-bit %+v", u, w, got, ref)
			}
		}
	}
	if !sawSaturated {
		t.Fatal("workload never saturated the sketch; the clamped branch went untested")
	}
}

func TestPositionsMatchPerMemberHashing(t *testing.T) {
	v := MustNew(Config{MemoryBits: 1 << 20, SketchBits: 257, Seed: 5})
	for _, u := range []stream.User{0, 1, 7, 1 << 40} {
		pos := v.Positions(u)
		if len(pos) != 257 {
			t.Fatalf("len = %d", len(pos))
		}
		for j, p := range pos {
			if want := v.position(u, j); p != want {
				t.Fatalf("user %d slot %d: %d, want %d", u, j, p, want)
			}
		}
	}
}

// RecoverBit returns Ô_u[j] = A[f_j(u)], the rebuilt bit j of user u's
// virtual odd sketch, one probe at a time: the oracle of the packed gather.
func (v *VOS) RecoverBit(u stream.User, j int) bool {
	return v.arr.Get(v.position(u, j))
}

// TestRecoverSketchMatchesRecoverBit checks the packed gather against the
// public single-bit recovery, slot by slot.
func TestRecoverSketchMatchesRecoverBit(t *testing.T) {
	v, users := materializedWorkload(t, Config{MemoryBits: 1 << 16, SketchBits: 200, Seed: 3})
	for _, u := range users[:10] {
		r := v.RecoverSketch(u)
		for j := 0; j < v.K(); j++ {
			if r.bits.Get(uint64(j)) != v.RecoverBit(u, j) {
				t.Fatalf("user %d slot %d differs", u, j)
			}
		}
	}
}

// TestRecoverRangeAndSlot pins what a reader of the applied stream needs to
// follow one write into a recovered sketch, for both hash families: an
// element flips exactly bit Slot(item) of its user's recovered sketch. (The
// range recovery it was named for is gone: the approximate top-K index
// applies writes to the bits it stores instead.)
func TestRecoverRangeAndSlot(t *testing.T) {
	for _, fam := range []hashing.Kind{hashing.KindClassic, hashing.KindFast} {
		v, users := materializedWorkload(t, Config{MemoryBits: 1 << 16, SketchBits: 200, Seed: 3, Family: fam})
		for _, u := range users[:10] {
			before := v.RecoverSketch(u).bits.Clone()
			item := stream.Item(1<<40 + uint64(u))
			v.Process(stream.Edge{User: u, Item: item, Op: stream.Insert})
			before.Flip(uint64(v.Slot(item)))
			if !v.RecoverSketch(u).bits.Equal(before) {
				t.Fatalf("%v: user %d: an insert of item %d did not flip exactly bit Slot = %d", fam, u, item, v.Slot(item))
			}
		}
	}
}

// TestRecoveredCacheHitCarriesCount pins the cached popcount: a cache hit
// wraps the stored words with the ones count recorded at fill time
// (FromWordsCountedUnsafe, skipping a k-bit recount), so Count on a served
// snapshot must match a fresh bit-by-bit recount.
func TestRecoveredCacheHitCarriesCount(t *testing.T) {
	v, users := materializedWorkload(t, Config{MemoryBits: 1 << 16, SketchBits: 512, Seed: 9})
	v.SetRecoveredCacheCapacity(0)
	for _, u := range users[:10] {
		cold := v.RecoverSketch(u) // fills the cache
		hit := v.RecoverSketch(u)  // serves from it
		recount := uint64(0)
		for j := 0; j < v.K(); j++ {
			if hit.bits.Get(uint64(j)) {
				recount++
			}
		}
		if hit.bits.Count() != recount || cold.bits.Count() != recount {
			t.Fatalf("user %d: cached count %d, cold %d, recount %d",
				u, hit.bits.Count(), cold.bits.Count(), recount)
		}
	}
	if rst, ok := v.RecoveredCacheStats(); !ok || rst.Hits == 0 {
		t.Fatalf("repeat RecoverSketch never hit the cache: %+v", rst)
	}
}

// topKReference ranks candidates by per-pair scalar queries and a full
// sort — the semantics TopK must reproduce.
func topKReference(v *VOS, u stream.User, candidates []stream.User, n int) []TopKResult {
	var xs []TopKResult
	for _, w := range candidates {
		if w == u {
			continue
		}
		xs = append(xs, TopKResult{User: w, Estimate: v.QueryPerBit(u, w)})
	}
	sort.Slice(xs, func(i, j int) bool { return better(xs[i], xs[j]) })
	if n < 0 {
		n = 0
	}
	if n > len(xs) {
		n = len(xs)
	}
	return xs[:n]
}

func TestTopKMatchesFullSortReference(t *testing.T) {
	v, users := materializedWorkload(t, Config{MemoryBits: 1 << 16, SketchBits: 512, Seed: 9})
	probe := users[3]
	for _, n := range []int{0, 1, 3, 10, len(users) - 1, len(users), len(users) + 5} {
		got := v.TopK(probe, users, n) // users includes the probe: must be skipped
		want := topKReference(v, probe, users, n)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d results, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d rank %d: got {%d %+v}, want {%d %+v}",
					n, i, got[i].User, got[i].Estimate, want[i].User, want[i].Estimate)
			}
		}
	}
}

func TestTopKEmptyAndDegenerate(t *testing.T) {
	v, users := materializedWorkload(t, Config{MemoryBits: 1 << 16, SketchBits: 512, Seed: 9})
	if got := v.TopK(1, nil, 5); len(got) != 0 {
		t.Errorf("nil candidates: %d results", len(got))
	}
	if got := v.TopK(1, []stream.User{1}, 5); len(got) != 0 {
		t.Errorf("self-only candidates: %d results", len(got))
	}
	if got := v.TopK(1, users, 0); len(got) != 0 {
		t.Errorf("n=0: %d results", len(got))
	}
	// A huge or negative n — e.g. straight from an untrusted request body —
	// must clamp instead of panicking in the heap's capacity allocation.
	want := topKReference(v, 1, users, len(users))
	if got := v.TopK(1, users, 1<<(bits.UintSize-2)); len(got) != len(want) {
		t.Errorf("huge n: %d results, want %d", len(got), len(want))
	}
	if got := v.TopK(1, users, -1); len(got) != 0 {
		t.Errorf("negative n: %d results, want 0", len(got))
	}
}

// TestUsersCountsCardEntries pins the O(1) Users(): the prune in Process
// and Merge guarantees no zero-cardinality entries survive, so the map
// length is the user count even through insert/delete churn.
func TestUsersCountsCardEntries(t *testing.T) {
	v := MustNew(Config{MemoryBits: 1 << 12, SketchBits: 32, Seed: 1})
	v.Process(stream.Edge{User: 1, Item: 10, Op: stream.Insert})
	v.Process(stream.Edge{User: 2, Item: 10, Op: stream.Insert})
	if v.Users() != 2 {
		t.Fatalf("Users() = %d, want 2", v.Users())
	}
	// Delete-before-insert reordering passes through a negative counter;
	// the entry must still vanish once it cancels.
	v.Process(stream.Edge{User: 2, Item: 11, Op: stream.Delete})
	v.Process(stream.Edge{User: 2, Item: 10, Op: stream.Delete})
	v.Process(stream.Edge{User: 2, Item: 11, Op: stream.Insert})
	if v.Users() != 1 {
		t.Fatalf("Users() after cancellation = %d, want 1", v.Users())
	}
}
