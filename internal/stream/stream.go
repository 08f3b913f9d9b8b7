// Package stream defines the fully dynamic bipartite graph-stream model of
// the paper: a sequence of elements (u, i, a) where u is a user, i an item,
// and a ∈ {insert, delete} a subscription or unsubscription.
//
// The package provides the element types shared by every sketch
// and every experiment, a feasibility validator (the paper restricts
// attention to feasible streams: no duplicate subscriptions, no deletion of
// absent edges), stream statistics, and text/binary codecs so generated
// workloads can be persisted and replayed.
//
// The binary element encoding (codec.go: AppendElements, DecodeElements)
// is also what the write-ahead log records, the HTTP client posts and the
// datagram frame carries. It folds the op bit into the user's 64-bit
// varint, so it carries user ids up to MaxUser = 2^63-1 and every encoder
// refuses a larger one with ErrUserRange rather than deliver the edge to
// another user; the text format and the in-memory sketches take all 64
// bits.
package stream

import (
	"fmt"
)

// User identifies a user node of the bipartite graph.
type User uint64

// Item identifies an item node of the bipartite graph.
type Item uint64

// Op is an edge action: subscription or unsubscription. Every layer reads
// any value other than Delete as Insert: the sketch applies it as +1 and the
// element codec encodes it as an insert.
type Op uint8

const (
	// Insert is the "+" action: user subscribes to item.
	Insert Op = iota
	// Delete is the "−" action: user unsubscribes from item.
	Delete
)

// String returns the paper's notation for the action.
func (op Op) String() string {
	switch op {
	case Insert:
		return "+"
	case Delete:
		return "-"
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// Valid reports whether op is a defined action.
func (op Op) Valid() bool { return op == Insert || op == Delete }

// Edge is one stream element e(t) = (u, i, a).
type Edge struct {
	User User
	Item Item
	Op   Op
}

// String renders the element in the paper's (u, i, ±) notation.
func (e Edge) String() string {
	return fmt.Sprintf("(%d, %d, %s)", e.User, e.Item, e.Op)
}

// Stats accumulates summary statistics of a stream: element counts by
// action and the set of distinct users and items observed. It is itself a
// streaming structure — feed it edges with Observe.
type Stats struct {
	Inserts  uint64
	Deletes  uint64
	users    map[User]struct{}
	items    map[Item]struct{}
	liveEdge int64 // inserts - deletes, the number of live edges if feasible
}

// NewStats creates an empty statistics accumulator.
func NewStats() *Stats {
	return &Stats{
		users: make(map[User]struct{}),
		items: make(map[Item]struct{}),
	}
}

// Observe folds one element into the statistics.
func (st *Stats) Observe(e Edge) {
	if e.Op == Delete {
		st.Deletes++
		st.liveEdge--
	} else {
		st.Inserts++
		st.liveEdge++
	}
	st.users[e.User] = struct{}{}
	st.items[e.Item] = struct{}{}
}

// Elements returns the total number of observed stream elements.
func (st *Stats) Elements() uint64 { return st.Inserts + st.Deletes }

// Users returns the number of distinct users observed.
func (st *Stats) Users() int { return len(st.users) }

// Items returns the number of distinct items observed.
func (st *Stats) Items() int { return len(st.items) }

// String summarises the statistics.
func (st *Stats) String() string {
	return fmt.Sprintf("elements=%d (+%d/−%d) users=%d items=%d live=%d",
		st.Elements(), st.Inserts, st.Deletes, st.Users(), st.Items(), st.liveEdge)
}
