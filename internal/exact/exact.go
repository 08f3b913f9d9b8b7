// Package exact maintains exact per-user item sets and exact pair
// similarities over a fully dynamic graph stream. It is the ground truth
// that the paper's error metrics (AAPE over ŝ, ARMSE over Ĵ) are computed
// against, and it doubles as the reference oracle for the sketch tests.
//
// Memory is Θ(live edges), which is exactly why sketches exist — the
// package is for evaluation, not production use.
package exact

import (
	"fmt"
	"sort"

	"github.com/vossketch/vos/internal/stream"
)

// Store holds the exact item set of every user seen in the stream.
type Store struct {
	sets map[stream.User]map[stream.Item]struct{}
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{sets: make(map[stream.User]map[stream.Item]struct{})}
}

// Apply folds one stream element into the store. It returns an error for
// infeasible elements (duplicate subscription / absent unsubscription) and
// leaves the state unchanged in that case.
func (s *Store) Apply(e stream.Edge) error {
	set := s.sets[e.User]
	switch e.Op {
	case stream.Insert:
		if set == nil {
			set = make(map[stream.Item]struct{})
			s.sets[e.User] = set
		}
		if _, dup := set[e.Item]; dup {
			return fmt.Errorf("exact: duplicate subscription %s", e)
		}
		set[e.Item] = struct{}{}
	case stream.Delete:
		if set == nil {
			return fmt.Errorf("exact: unsubscription for unknown user %s", e)
		}
		if _, ok := set[e.Item]; !ok {
			return fmt.Errorf("exact: unsubscription of absent item %s", e)
		}
		delete(set, e.Item)
	default:
		return fmt.Errorf("exact: invalid op in %s", e)
	}
	return nil
}

// MustApply is Apply for feasible-by-construction streams; it panics on
// infeasible elements.
func (s *Store) MustApply(e stream.Edge) {
	if err := s.Apply(e); err != nil {
		panic(err)
	}
}

// Cardinality returns |S_u|.
func (s *Store) Cardinality(u stream.User) int {
	return len(s.sets[u])
}

// Has reports whether user u currently subscribes to item i.
func (s *Store) Has(u stream.User, i stream.Item) bool {
	_, ok := s.sets[u][i]
	return ok
}

// Items returns a copy of S_u in unspecified order.
func (s *Store) Items(u stream.User) []stream.Item {
	set := s.sets[u]
	out := make([]stream.Item, 0, len(set))
	for it := range set {
		out = append(out, it)
	}
	return out
}

// Users returns every user with at least one current subscription.
func (s *Store) Users() []stream.User {
	out := make([]stream.User, 0, len(s.sets))
	for u, set := range s.sets {
		if len(set) > 0 {
			out = append(out, u)
		}
	}
	return out
}

// CommonItems returns s_uv = |S_u ∩ S_v| by scanning the smaller set.
func (s *Store) CommonItems(u, v stream.User) int {
	a, b := s.sets[u], s.sets[v]
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for it := range a {
		if _, ok := b[it]; ok {
			n++
		}
	}
	return n
}

// Jaccard returns J(S_u, S_v). The Jaccard of two empty sets is defined as
// 0 here (the paper never queries such pairs; 0 keeps metrics finite).
func (s *Store) Jaccard(u, v stream.User) float64 {
	inter := s.CommonItems(u, v)
	union := len(s.sets[u]) + len(s.sets[v]) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// TopUsers returns the n users with the largest current cardinality,
// breaking ties by user ID for determinism. This mirrors the paper's
// selection of the "5,000 users with largest cardinalities".
func (s *Store) TopUsers(n int) []stream.User {
	users := make([]stream.User, 0, len(s.sets))
	for u := range s.sets {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool {
		ci, cj := len(s.sets[users[i]]), len(s.sets[users[j]])
		if ci != cj {
			return ci > cj
		}
		return users[i] < users[j]
	})
	if n > len(users) {
		n = len(users)
	}
	return users[:n]
}

// Pair is an unordered user pair; constructors normalise so U < V.
type Pair struct {
	U, V stream.User
}

// MakePair builds a normalised pair. u and v must differ.
func MakePair(u, v stream.User) Pair {
	if u == v {
		panic(fmt.Sprintf("exact: degenerate pair (%d, %d)", u, v))
	}
	if u > v {
		u, v = v, u
	}
	return Pair{U: u, V: v}
}

// PairsWithCommonItems enumerates all pairs among users that currently
// share at least minCommon items, capped at maxPairs (0 = no cap). This is
// the paper's tracked-pair selection: pairs of top-cardinality users with
// at least one common item.
func (s *Store) PairsWithCommonItems(users []stream.User, minCommon, maxPairs int) []Pair {
	var out []Pair
	for i := 0; i < len(users); i++ {
		for j := i + 1; j < len(users); j++ {
			if s.CommonItems(users[i], users[j]) >= minCommon {
				out = append(out, MakePair(users[i], users[j]))
				if maxPairs > 0 && len(out) >= maxPairs {
					return out
				}
			}
		}
	}
	return out
}
