package exact

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/stream"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	s.MustApply(stream.Edge{User: 1, Item: 10, Op: stream.Insert})
	s.MustApply(stream.Edge{User: 1, Item: 11, Op: stream.Insert})
	s.MustApply(stream.Edge{User: 2, Item: 10, Op: stream.Insert})

	if s.Cardinality(1) != 2 || s.Cardinality(2) != 1 {
		t.Fatalf("cardinalities %d/%d", s.Cardinality(1), s.Cardinality(2))
	}
	if !s.Has(1, 10) || s.Has(2, 11) {
		t.Error("Has wrong")
	}
	if s.CommonItems(1, 2) != 1 {
		t.Errorf("common = %d", s.CommonItems(1, 2))
	}
	if got, want := s.Jaccard(1, 2), 1.0/2.0; got != want {
		t.Errorf("jaccard = %v, want %v", got, want)
	}

	s.MustApply(stream.Edge{User: 1, Item: 10, Op: stream.Delete})
	if s.Cardinality(1) != 1 || s.CommonItems(1, 2) != 0 {
		t.Error("deletion not applied")
	}
}

func TestStoreJaccardEmpty(t *testing.T) {
	s := NewStore()
	if s.Jaccard(8, 9) != 0 {
		t.Error("empty-empty Jaccard should be 0")
	}
}

func TestStoreInfeasible(t *testing.T) {
	s := NewStore()
	s.MustApply(stream.Edge{User: 1, Item: 10, Op: stream.Insert})
	if err := s.Apply(stream.Edge{User: 1, Item: 10, Op: stream.Insert}); err == nil {
		t.Error("duplicate insert accepted")
	}
	if err := s.Apply(stream.Edge{User: 1, Item: 99, Op: stream.Delete}); err == nil {
		t.Error("absent delete accepted")
	}
	if err := s.Apply(stream.Edge{User: 5, Item: 1, Op: stream.Delete}); err == nil {
		t.Error("delete for unknown user accepted")
	}
	if err := s.Apply(stream.Edge{User: 1, Item: 1, Op: stream.Op(9)}); err == nil {
		t.Error("invalid op accepted")
	}
	// State must be unchanged after rejected elements.
	if s.Cardinality(1) != 1 {
		t.Errorf("cardinality changed to %d", s.Cardinality(1))
	}
}

func TestStoreItemsAndUsers(t *testing.T) {
	s := NewStore()
	s.MustApply(stream.Edge{User: 1, Item: 5, Op: stream.Insert})
	s.MustApply(stream.Edge{User: 2, Item: 6, Op: stream.Insert})
	s.MustApply(stream.Edge{User: 2, Item: 6, Op: stream.Delete})
	items := s.Items(1)
	if len(items) != 1 || items[0] != 5 {
		t.Errorf("Items(1) = %v", items)
	}
	users := s.Users()
	if len(users) != 1 || users[0] != 1 {
		t.Errorf("Users() = %v (user 2 has empty set)", users)
	}
}

func TestTopUsers(t *testing.T) {
	s := NewStore()
	for u := stream.User(1); u <= 5; u++ {
		for i := stream.Item(0); i < stream.Item(u)*2; i++ {
			s.MustApply(stream.Edge{User: u, Item: i, Op: stream.Insert})
		}
	}
	top := s.TopUsers(2)
	if len(top) != 2 || top[0] != 5 || top[1] != 4 {
		t.Errorf("TopUsers(2) = %v", top)
	}
	if got := s.TopUsers(100); len(got) != 5 {
		t.Errorf("TopUsers over-count = %d", len(got))
	}
}

func TestTopUsersTieBreak(t *testing.T) {
	s := NewStore()
	for _, u := range []stream.User{9, 3, 7} {
		s.MustApply(stream.Edge{User: u, Item: 1, Op: stream.Insert})
	}
	top := s.TopUsers(3)
	if top[0] != 3 || top[1] != 7 || top[2] != 9 {
		t.Errorf("tie break not by ID: %v", top)
	}
}

func TestMakePair(t *testing.T) {
	p := MakePair(9, 2)
	if p.U != 2 || p.V != 9 {
		t.Errorf("not normalised: %+v", p)
	}
	defer func() {
		if recover() == nil {
			t.Error("self-pair should panic")
		}
	}()
	MakePair(3, 3)
}

func TestPairsWithCommonItems(t *testing.T) {
	s := NewStore()
	// users 1,2 share item 100; user 3 is disjoint.
	s.MustApply(stream.Edge{User: 1, Item: 100, Op: stream.Insert})
	s.MustApply(stream.Edge{User: 2, Item: 100, Op: stream.Insert})
	s.MustApply(stream.Edge{User: 3, Item: 200, Op: stream.Insert})
	users := []stream.User{1, 2, 3}
	pairs := s.PairsWithCommonItems(users, 1, 0)
	if len(pairs) != 1 || pairs[0] != MakePair(1, 2) {
		t.Errorf("pairs = %v", pairs)
	}
	if got := s.PairsWithCommonItems(users, 0, 2); len(got) != 2 {
		t.Errorf("maxPairs cap: got %d", len(got))
	}
}

func TestPairTrackerMatchesBruteForce(t *testing.T) {
	// Random feasible stream over a small universe; tracker counts must
	// equal recomputed intersections after every element.
	const users = 8
	const items = 12
	rng := rand.New(rand.NewSource(42))

	var pairs []Pair
	for u := stream.User(0); u < users; u++ {
		for v := u + 1; v < users; v++ {
			pairs = append(pairs, MakePair(u, v))
		}
	}
	tr, err := NewPairTracker(pairs)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStore()

	live := make(map[[2]uint64]bool)
	for step := 0; step < 3000; step++ {
		u := stream.User(rng.Intn(users))
		i := stream.Item(rng.Intn(items))
		key := [2]uint64{uint64(u), uint64(i)}
		op := stream.Insert
		if live[key] {
			op = stream.Delete
		}
		e := stream.Edge{User: u, Item: i, Op: op}
		live[key] = !live[key]

		if err := tr.Apply(e); err != nil {
			t.Fatal(err)
		}
		ref.MustApply(e)

		// Spot-check a few pairs every step, all pairs occasionally.
		if step%500 == 0 {
			for idx, p := range pairs {
				if got, want := tr.CommonItems(idx), ref.CommonItems(p.U, p.V); got != want {
					t.Fatalf("step %d pair %v: tracked %d, exact %d", step, p, got, want)
				}
				if got, want := tr.Jaccard(idx), ref.Jaccard(p.U, p.V); got != want {
					t.Fatalf("step %d pair %v: jaccard %v vs %v", step, p, got, want)
				}
			}
		}
	}
}

func TestPairTrackerOnGeneratedStream(t *testing.T) {
	p := gen.Profile{Name: "t", Users: 50, Items: 100, Edges: 800,
		UserSkew: 1.6, ItemSkew: 1.3}
	edges := gen.Dynamize(gen.Bipartite(p, 1),
		gen.DynamizeConfig{EventProb: 0.01, DeleteFrac: 0.5, Seed: 2})

	pairs := []Pair{MakePair(0, 1), MakePair(2, 3), MakePair(4, 5)}
	tr, err := NewPairTracker(pairs)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStore()
	for _, e := range edges {
		if err := tr.Apply(e); err != nil {
			t.Fatal(err)
		}
		ref.MustApply(e)
	}
	for idx, pr := range pairs {
		if got, want := tr.CommonItems(idx), ref.CommonItems(pr.U, pr.V); got != want {
			t.Errorf("pair %v: %d vs %d", pr, got, want)
		}
	}
}

func TestPairTrackerRejectsDuplicates(t *testing.T) {
	if _, err := NewPairTracker([]Pair{MakePair(1, 2), MakePair(2, 1)}); err == nil {
		t.Error("duplicate pair accepted")
	}
}

func TestPairTrackerInfeasibleLeavesCountsAlone(t *testing.T) {
	tr, _ := NewPairTracker([]Pair{MakePair(1, 2)})
	if err := tr.Apply(stream.Edge{User: 1, Item: 5, Op: stream.Insert}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Apply(stream.Edge{User: 2, Item: 5, Op: stream.Insert}); err != nil {
		t.Fatal(err)
	}
	if tr.CommonItems(0) != 1 {
		t.Fatalf("setup: common = %d", tr.CommonItems(0))
	}
	if err := tr.Apply(stream.Edge{User: 1, Item: 5, Op: stream.Insert}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if tr.CommonItems(0) != 1 {
		t.Errorf("infeasible element changed count to %d", tr.CommonItems(0))
	}
}

func TestCommonItemsSymmetricProperty(t *testing.T) {
	err := quick.Check(func(itemsA, itemsB []uint8) bool {
		s := NewStore()
		addAll := func(u stream.User, items []uint8) {
			seen := map[uint8]bool{}
			for _, i := range items {
				if !seen[i] {
					seen[i] = true
					s.MustApply(stream.Edge{User: u, Item: stream.Item(i), Op: stream.Insert})
				}
			}
		}
		addAll(1, itemsA)
		addAll(2, itemsB)
		return s.CommonItems(1, 2) == s.CommonItems(2, 1) &&
			s.Jaccard(1, 2) == s.Jaccard(2, 1)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
