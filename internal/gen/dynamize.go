package gen

import (
	"fmt"
	"math/rand"

	"github.com/vossketch/vos/internal/stream"
)

// DynamizeConfig controls the transformation of an insert-only edge list
// into a fully dynamic stream with mass-deletion events, following the
// experimental model of Trièst (De Stefani et al., KDD'16) that the paper
// adopts in §V with q = 1/2,000,000 and d = 0.5.
type DynamizeConfig struct {
	// EventProb is q: after each emitted element a mass-deletion event
	// fires with this probability, so events occur on average every 1/q
	// elements.
	EventProb float64
	// DeleteFrac is d: during an event each live edge is deleted
	// independently with this probability.
	DeleteFrac float64
	// Reinsert controls whether deleted edges are queued for
	// re-subscription later in the stream. The paper's model (following
	// Trièst) does not re-insert mass-deleted edges, so the experiments
	// leave this false; enabling it produces extra churn for ablations.
	// Note that with re-insertion the expected stream length grows by a
	// factor 1/(1 − 2·q·d·|live|) and diverges when that product nears 1,
	// so Dynamize stops re-queueing once the output reaches 50x the base
	// length.
	Reinsert bool
	// Seed drives the event coin flips and requeue positions.
	Seed int64
}

// PaperDynamize returns the paper's §V parameters scaled to a stream of the
// given base size: d = 0.5 and q chosen so the expected number of events
// over the stream matches the full-scale setting (the paper's inputs are
// 5M-220M edges with q = 1/2M, i.e. roughly 2.5-110 events per run; we pin
// the expectation to 3 events per run, near the YouTube-at-full-scale
// figure, independent of scale). Deleted edges are not re-inserted,
// matching the Trièst model the paper adopts.
func PaperDynamize(baseEdges int, seed int64) DynamizeConfig {
	const expectedEvents = 3.0
	q := expectedEvents / float64(baseEdges)
	if q > 0.01 {
		q = 0.01 // don't let tiny test streams degenerate into all-delete noise
	}
	return DynamizeConfig{EventProb: q, DeleteFrac: 0.5, Reinsert: false, Seed: seed}
}

// Dynamize converts a feasible insert-only edge list into a fully dynamic
// stream. The base insertion order is preserved (callers shuffle upstream);
// deletions appear as contiguous bursts at event points; re-inserted edges
// are spliced uniformly at random into the not-yet-consumed suffix.
//
// The output stream is always feasible. With Reinsert, the final live edge
// set equals the input edge set.
func Dynamize(base []stream.Edge, cfg DynamizeConfig) []stream.Edge {
	if cfg.EventProb < 0 || cfg.EventProb > 1 {
		panic(fmt.Sprintf("gen: event probability %v out of [0, 1]", cfg.EventProb))
	}
	if cfg.DeleteFrac < 0 || cfg.DeleteFrac > 1 {
		panic(fmt.Sprintf("gen: delete fraction %v out of [0, 1]", cfg.DeleteFrac))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// pending holds insertions yet to be emitted, consumed back-to-front.
	// Start from a reversed copy so consumption follows the input order.
	pending := make([]stream.Edge, len(base))
	for i, e := range base {
		if e.Op != stream.Insert {
			panic(fmt.Sprintf("gen: Dynamize input must be insert-only, got %s at %d", e, i))
		}
		pending[len(base)-1-i] = e
	}

	live := newEdgeSet(len(base))
	out := make([]stream.Edge, 0, len(base)+len(base)/2)

	for len(pending) > 0 {
		e := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		live.add(e.User, e.Item)
		out = append(out, e)

		if cfg.EventProb > 0 && rng.Float64() < cfg.EventProb {
			// Mass deletion: visit the live edges in random order and
			// delete each with probability d.
			victims := live.sample(rng, cfg.DeleteFrac)
			for _, v := range victims {
				live.remove(v.User, v.Item)
				out = append(out, stream.Edge{User: v.User, Item: v.Item, Op: stream.Delete})
			}
			if cfg.Reinsert && len(out) < 50*len(base) {
				for _, v := range victims {
					// Splice at a uniform position of the unconsumed
					// suffix (consumption is from the back).
					pending = append(pending, stream.Edge{User: v.User, Item: v.Item, Op: stream.Insert})
					j := rng.Intn(len(pending))
					last := len(pending) - 1
					pending[j], pending[last] = pending[last], pending[j]
				}
			}
		}
	}
	return out
}

// edgeKey identifies an undirected user-item edge.
type edgeKey struct {
	User stream.User
	Item stream.Item
}

// edgeSet is a set of live edges supporting O(1) add/remove and uniform
// sampling, implemented as the classic slice+index-map pair.
type edgeSet struct {
	list []edgeKey
	idx  map[edgeKey]int
}

func newEdgeSet(capHint int) *edgeSet {
	return &edgeSet{
		list: make([]edgeKey, 0, capHint),
		idx:  make(map[edgeKey]int, capHint),
	}
}

func (s *edgeSet) add(u stream.User, i stream.Item) {
	k := edgeKey{u, i}
	if _, ok := s.idx[k]; ok {
		return
	}
	s.idx[k] = len(s.list)
	s.list = append(s.list, k)
}

func (s *edgeSet) remove(u stream.User, i stream.Item) {
	k := edgeKey{u, i}
	pos, ok := s.idx[k]
	if !ok {
		return
	}
	last := len(s.list) - 1
	s.list[pos] = s.list[last]
	s.idx[s.list[pos]] = pos
	s.list = s.list[:last]
	delete(s.idx, k)
}

// sample returns each live edge independently with probability frac, in
// random order.
func (s *edgeSet) sample(rng *rand.Rand, frac float64) []edgeKey {
	if frac <= 0 {
		return nil
	}
	out := make([]edgeKey, 0, int(float64(len(s.list))*frac)+1)
	for _, k := range s.list {
		if frac >= 1 || rng.Float64() < frac {
			out = append(out, k)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
