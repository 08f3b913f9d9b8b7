package gen

import (
	"fmt"
	"math/rand"

	"github.com/vossketch/vos/internal/stream"
)

// Bipartite generates a static bipartite subscription graph matching a
// profile: user degrees follow a Zipf law with exponent UserSkew scaled so
// the total edge count hits Edges, and each subscription picks an item from
// a Zipf popularity law with exponent ItemSkew (rejecting duplicates within
// a user). The result is a deduplicated edge list in insertion form,
// shuffled into a uniformly random arrival order.
//
// Generation is deterministic in (profile, seed).
func Bipartite(p Profile, seed int64) []stream.Edge {
	if p.Users == 0 || p.Items == 0 || p.Edges == 0 {
		panic(fmt.Sprintf("gen: degenerate profile %v", p))
	}
	if p.Edges > p.Users*p.Items {
		p.Edges = p.Users * p.Items // cannot exceed the complete bipartite graph
	}
	rng := rand.New(rand.NewSource(seed))
	degrees := sampleDegrees(rng, p)
	itemDist := newZipfPicker(rng, p.Items, p.ItemSkew)

	edges := make([]stream.Edge, 0, p.Edges)
	// Small reusable set for per-user dedup; cleared between users by
	// generation counter to avoid reallocating.
	for u := uint64(0); u < p.Users; u++ {
		deg := degrees[u]
		if deg == 0 {
			continue
		}
		chosen := make(map[stream.Item]struct{}, deg)
		attempts := 0
		maxAttempts := 12 * int(deg)
		for len(chosen) < int(deg) && attempts < maxAttempts {
			it := itemDist.pick()
			attempts++
			if _, dup := chosen[it]; dup {
				continue
			}
			chosen[it] = struct{}{}
			edges = append(edges, stream.Edge{User: stream.User(u), Item: it, Op: stream.Insert})
		}
		// Rejection starved (tiny item universe and/or huge degree):
		// fill deterministically with a random linear probe.
		if len(chosen) < int(deg) {
			start := stream.Item(rng.Int63n(int64(p.Items)))
			for it := uint64(0); it < p.Items && len(chosen) < int(deg); it++ {
				cand := stream.Item((uint64(start) + it) % p.Items)
				if _, dup := chosen[cand]; dup {
					continue
				}
				chosen[cand] = struct{}{}
				edges = append(edges, stream.Edge{User: stream.User(u), Item: cand, Op: stream.Insert})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// sampleDegrees draws a Zipf degree per user and rescales so the total is
// close to p.Edges, with every degree clamped to [1, p.Items].
func sampleDegrees(rng *rand.Rand, p Profile) []uint64 {
	z := rand.NewZipf(rng, p.UserSkew, 1, p.Items-1)
	raw := make([]uint64, p.Users)
	var total uint64
	for u := range raw {
		raw[u] = z.Uint64() + 1
		total += raw[u]
	}
	scale := float64(p.Edges) / float64(total)
	var sum uint64
	for u := range raw {
		d := min(max(uint64(float64(raw[u])*scale+0.5), 1), p.Items)
		raw[u] = d
		sum += d
	}
	// Nudge the total toward the target by distributing the residual over
	// random users; keeps E within a fraction of a percent of the goal.
	for sum < p.Edges {
		u := rng.Intn(len(raw))
		if raw[u] < p.Items {
			raw[u]++
			sum++
		}
	}
	for sum > p.Edges && sum > uint64(len(raw)) {
		u := rng.Intn(len(raw))
		if raw[u] > 1 {
			raw[u]--
			sum--
		}
	}
	return raw
}

// zipfPicker draws items with Zipf-distributed popularity. A fixed random
// relabeling decouples popularity rank from item ID so that popular items
// are spread across the ID space (matters only for hash quality tests, but
// costs nothing).
type zipfPicker struct {
	z      *rand.Zipf
	n      uint64
	offset uint64
	mult   uint64
}

func newZipfPicker(rng *rand.Rand, n uint64, skew float64) *zipfPicker {
	if skew <= 1 {
		skew = 1.0001 // rand.Zipf requires s > 1
	}
	return &zipfPicker{
		z:      rand.NewZipf(rng, skew, 1, n-1),
		n:      n,
		offset: rng.Uint64() % n,
		mult:   largestCoprimeOdd(n),
	}
}

// pick returns a Zipf-ranked item relabeled by an affine map that is a
// bijection on [0, n) (mult is odd and coprime checks are not needed for a
// bijection modulo n when gcd(mult, n)=1; largestCoprimeOdd guarantees it).
func (zp *zipfPicker) pick() stream.Item {
	r := zp.z.Uint64()
	return stream.Item((r*zp.mult + zp.offset) % zp.n)
}

// largestCoprimeOdd returns an odd multiplier coprime with n.
func largestCoprimeOdd(n uint64) uint64 {
	for m := n/2 | 1; ; m += 2 {
		if gcd(m, n) == 1 {
			return m
		}
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
