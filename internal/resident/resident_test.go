package resident

import (
	"context"
	"errors"
	"testing"

	"github.com/vossketch/vos/internal/core"
)

// fakeSource is a driver whose parts are one counter: a view is current
// when its stamp equals now, a replay costs now-stamp edges.
type fakeSource struct {
	now   int
	cause Cause // what Refresh says of a spare it is given; Replayed brings it forward
	err   error
}

func (s *fakeSource) Current(st *int) bool { return *st == s.now }

func (s *fakeSource) Refresh(_ context.Context, spare *View[int]) (*View[int], Cause, int, error) {
	if s.err != nil {
		return nil, 0, 0, s.err
	}
	if spare != nil && s.cause == Replayed {
		edges := s.now - spare.Stamp
		spare.Stamp = s.now
		return spare, Replayed, edges, nil
	}
	sk := core.MustNew(core.Config{MemoryBits: 1 << 10, SketchBits: 64, Seed: 1})
	return &View[int]{Sk: sk, Stamp: s.now}, s.cause, 0, nil
}

// TestPair walks the pair's own rules with a driver that has none: which
// view a refresh writes, what it counts, and what a failure leaves behind.
func TestPair(t *testing.T) {
	ctx := context.Background()
	var p Pair[int]
	src := &fakeSource{cause: Replayed}
	read := func() *View[int] {
		t.Helper()
		v, err := p.Acquire(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		if v.Stamp != src.now {
			t.Fatalf("acquired a view at %d, now is %d", v.Stamp, src.now)
		}
		return v
	}
	expect := func(at string, want Stats) {
		t.Helper()
		if got := p.Stats(); got != want {
			t.Fatalf("%s: %+v, want %+v", at, got, want)
		}
	}

	a := read()
	a.Release()
	if again := read(); again != a {
		t.Fatal("a current view was not served as it is")
	} else {
		again.Release()
	}
	expect("one refresh, one quiet read", Stats{RebuildsFirst: 1})
	src.now = 10
	b := read()
	b.Release()
	expect("no second view yet", Stats{RebuildsFirst: 2})
	src.now = 25
	if v := read(); v != a || v.Gen() <= b.Gen() {
		t.Fatalf("the third refresh must bring the first view forward under a new generation")
	} else {
		v.Release()
	}
	expect("replay", Stats{RebuildsFirst: 2, Replays: 1, ReplayedEdges: 25})

	// A reader parked on the published view (a): the next refresh writes the
	// spare (b) and retires a; the one after finds a busy, leaves it to its
	// reader and builds a fresh view.
	parked := read()
	src.now = 30
	read().Release()
	src.now = 40
	if v := read(); v == parked || v == b {
		t.Fatal("a busy spare was written")
	} else {
		v.Release()
	}
	if parked.Stamp != 25 {
		t.Fatalf("the parked reader's view moved to %d", parked.Stamp)
	}
	parked.Release()
	expect("busy spare", Stats{RebuildsFirst: 2, Replays: 2, ReplayedEdges: 45, RebuildsBusy: 1})

	// A failed refresh publishes nothing and counts nothing; the next one
	// carries on from the same views.
	src.now, src.err = 50, errors.New("part unreachable")
	if _, err := p.Acquire(ctx, src); !errors.Is(err, src.err) {
		t.Fatalf("Acquire = %v, want the refresh's error", err)
	}
	src.err = nil
	read().Release()
	expect("after a failed refresh", Stats{RebuildsFirst: 2, Replays: 3, ReplayedEdges: 65, RebuildsBusy: 1})

	// The driver's causes land in their own counters.
	want := p.Stats()
	for _, c := range []struct {
		cause Cause
		field *uint64
	}{
		{Overflow, &want.RebuildsOverflow}, {Rotation, &want.RebuildsRotation}, {Import, &want.RebuildsImport},
		{Epoch, &want.RebuildsEpoch}, {Ring, &want.RebuildsRing}, {NoDelta, &want.RebuildsNoDelta},
	} {
		src.now++
		src.cause = c.cause
		read().Release()
		*c.field++
		expect("driver cause", want)
	}
	if want.Rebuilds() != 9 {
		t.Fatalf("Rebuilds() = %d, want 9", want.Rebuilds())
	}
}
