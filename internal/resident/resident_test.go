package resident

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
)

var fakeConfig = core.Config{MemoryBits: 1 << 10, SketchBits: 64, Seed: 1}

// fakeEdges are the fake parts' writes from..to: write i subscribes user
// i%7 to item i.
func fakeEdges(from, to int) []stream.Edge {
	var out []stream.Edge
	for i := from; i < to; i++ {
		out = append(out, stream.Edge{User: stream.User(i % 7), Item: stream.Item(i)})
	}
	return out
}

// fakeSource is a driver whose parts are one counter of writes: a view is
// current when its stamp equals now, and its sketch holds writes 0..stamp.
type fakeSource struct {
	now   int
	cause Cause // what Refresh says of a view it is given; Replayed brings it forward
	err   error
}

func (s *fakeSource) Current(st *int) bool { return *st == s.now }

func (s *fakeSource) Refresh(_ context.Context, from *View[int]) (*View[int], Cause, int, error) {
	if s.err != nil {
		return nil, 0, 0, s.err
	}
	if from != nil && s.cause == Replayed {
		edges := fakeEdges(from.Stamp, s.now)
		from.Sk.ProcessBatch(edges)
		from.Stamp = s.now
		return from, Replayed, len(edges), nil
	}
	sk := core.MustNew(fakeConfig)
	sk.ProcessBatch(fakeEdges(0, s.now))
	return &View[int]{Sk: sk, Stamp: s.now}, s.cause, 0, nil
}

// fakeBytes is what a view at stamp must hold.
func fakeBytes(t *testing.T, stamp int) []byte {
	t.Helper()
	sk := core.MustNew(fakeConfig)
	sk.ProcessBatch(fakeEdges(0, stamp))
	b, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// holds fails unless v's sketch is exactly the state its stamp names.
func holds(t *testing.T, v *View[int], at string) {
	t.Helper()
	b, err := v.Sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, fakeBytes(t, v.Stamp)) {
		t.Fatalf("%s: a view at %d does not hold writes 0..%d", at, v.Stamp, v.Stamp)
	}
}

// TestPair walks the pair's own rules with a driver that has none: which
// view a refresh writes, what it counts, and what a failure leaves behind.
func TestPair(t *testing.T) {
	ctx := context.Background()
	var p Pair[int]
	src := &fakeSource{cause: Replayed}
	var gen uint64
	// read acquires the published view and requires it current, exact, and
	// under a generation no earlier state had unless nothing was written.
	read := func(at string) *View[int] {
		t.Helper()
		v, err := p.Acquire(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		if v.Stamp != src.now {
			t.Fatalf("%s: acquired a view at %d, now is %d", at, v.Stamp, src.now)
		}
		holds(t, v, at)
		if v.gen < gen {
			t.Fatalf("%s: generation went back from %d to %d", at, gen, v.gen)
		}
		gen = v.gen
		return v
	}
	// refreshed is read after a write: the view must be newly stamped.
	refreshed := func(at string) *View[int] {
		t.Helper()
		before := gen
		v := read(at)
		if v.gen <= before {
			t.Fatalf("%s: a refreshed view kept generation %d", at, v.gen)
		}
		return v
	}
	expect := func(at string, want Stats) {
		t.Helper()
		if got := p.Stats(); got != want {
			t.Fatalf("%s: %+v, want %+v", at, got, want)
		}
	}

	a := read("first")
	a.Release()
	if again := read("quiet"); again != a || again.gen != a.gen {
		t.Fatal("a current view was not served as it is")
	} else {
		again.Release()
	}
	expect("one refresh, one quiet read", Stats{RebuildsFirst: 1})

	// Nobody holds the published view: each refresh brings it forward in
	// place, one replay an edge.
	for _, now := range []int{10, 25} {
		src.now = now
		if v := refreshed("in place"); v != a {
			t.Fatal("an unheld published view was not brought forward in place")
		} else {
			v.Release()
		}
	}
	expect("in place", Stats{RebuildsFirst: 1, Replays: 2, ReplayedEdges: 25})

	// A reader parked on the published view (a), and no spare yet: the
	// refresh builds b and leaves a to its reader.
	parked := read("park on a")
	src.now = 30
	b := refreshed("a held, no spare")
	if b == a {
		t.Fatal("a held view was written")
	}
	b.Release()
	expect("a held, no spare", Stats{RebuildsFirst: 1, Replays: 2, ReplayedEdges: 25, RebuildsBusy: 1})
	src.now = 40
	if v := refreshed("b in place"); v != b {
		t.Fatal("the unheld published view b was not brought forward in place")
	} else {
		v.Release()
	}
	// Both held: a fresh view c, and a and b stay what they were.
	held := read("park on b")
	src.now = 50
	c := refreshed("a and b held")
	if c == a || c == b {
		t.Fatal("a held view was written")
	}
	c.Release()
	expect("both held", Stats{RebuildsFirst: 1, Replays: 3, ReplayedEdges: 35, RebuildsBusy: 2})
	holds(t, parked, "parked on a")
	holds(t, held, "parked on b")
	if parked.Stamp != 25 || held.Stamp != 40 {
		t.Fatalf("the parked views moved to %d and %d", parked.Stamp, held.Stamp)
	}
	parked.Release()
	held.Release()

	// The published view (c) held, the spare (b) free: b is brought
	// forward from 40 and published, c becomes the spare.
	parked = read("park on c")
	src.now = 60
	if v := refreshed("c held, b free"); v != b {
		t.Fatal("the free spare was not brought forward")
	} else {
		v.Release()
	}
	expect("spare", Stats{RebuildsFirst: 1, Replays: 4, ReplayedEdges: 55, RebuildsBusy: 2})
	holds(t, parked, "parked on c")
	parked.Release()

	// A failed refresh publishes nothing and counts nothing: the published
	// view keeps its stamp, bytes and generation, and the next refresh
	// brings it forward in place.
	pub, pubGen := read("before the failure"), gen
	pub.Release()
	want, err := pub.Sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	src.now, src.err = 70, errors.New("part unreachable")
	if _, err := p.Acquire(ctx, src); !errors.Is(err, src.err) {
		t.Fatalf("Acquire = %v, want the refresh's error", err)
	}
	if got, _ := pub.Sk.MarshalBinary(); pub.Stamp != 60 || pub.gen != pubGen || !bytes.Equal(got, want) {
		t.Fatalf("a failed refresh moved the published view: stamp %d, gen %d → %d", pub.Stamp, pubGen, pub.gen)
	}
	expect("failed refresh", Stats{RebuildsFirst: 1, Replays: 4, ReplayedEdges: 55, RebuildsBusy: 2})
	src.err = nil
	if v := refreshed("after a failed refresh"); v != pub {
		t.Fatal("the refresh after a failure did not bring the published view forward in place")
	} else {
		v.Release()
	}
	expect("after a failed refresh", Stats{RebuildsFirst: 1, Replays: 5, ReplayedEdges: 65, RebuildsBusy: 2})

	// The driver's causes land in their own counters.
	wantSt := p.Stats()
	for _, c := range []struct {
		cause Cause
		field *uint64
	}{
		{Overflow, &wantSt.RebuildsOverflow}, {Rotation, &wantSt.RebuildsRotation}, {Import, &wantSt.RebuildsImport},
		{Epoch, &wantSt.RebuildsEpoch}, {Ring, &wantSt.RebuildsRing}, {NoDelta, &wantSt.RebuildsNoDelta},
	} {
		src.now++
		src.cause = c.cause
		refreshed("driver cause").Release()
		*c.field++
		expect("driver cause", wantSt)
	}
	if wantSt.Rebuilds() != 9 {
		t.Fatalf("Rebuilds() = %d, want 9", wantSt.Rebuilds())
	}
}
