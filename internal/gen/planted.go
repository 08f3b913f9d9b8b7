package gen

import (
	"fmt"
	"math/rand"

	"github.com/vossketch/vos/internal/stream"
)

// PlantedPair constructs a two-user stream with an exactly known overlap:
// user a subscribes to sizeA items, user b to sizeB items, and exactly
// common of them are shared. The true similarity values are therefore
//
//	s_ab = common,  J = common / (sizeA + sizeB − common).
//
// Estimator accuracy tests are built on planted pairs because they decouple
// "is the estimator right" from "is the workload generator right".
func PlantedPair(a, b stream.User, sizeA, sizeB, common int, seed int64) []stream.Edge {
	if common > sizeA || common > sizeB || common < 0 {
		panic(fmt.Sprintf("gen: planted overlap %d impossible for sizes %d/%d", common, sizeA, sizeB))
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]stream.Edge, 0, sizeA+sizeB)
	// Items are laid out in disjoint ID ranges: [0, common) shared,
	// then private tails. A random base offset avoids accidental
	// alignment across multiple planted pairs in one stream.
	base := uint64(rng.Int63n(1 << 40))
	next := base
	for j := 0; j < common; j++ {
		it := stream.Item(next)
		next++
		edges = append(edges, stream.Edge{User: a, Item: it, Op: stream.Insert})
		edges = append(edges, stream.Edge{User: b, Item: it, Op: stream.Insert})
	}
	for j := 0; j < sizeA-common; j++ {
		edges = append(edges, stream.Edge{User: a, Item: stream.Item(next), Op: stream.Insert})
		next++
	}
	for j := 0; j < sizeB-common; j++ {
		edges = append(edges, stream.Edge{User: b, Item: stream.Item(next), Op: stream.Insert})
		next++
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// PlantedJaccard returns sizes and common count approximating a target
// Jaccard for two equal-size sets of the given size:
// J = c / (2n − c)  ⇒  c = 2nJ / (1 + J).
func PlantedJaccard(size int, jaccard float64) (common int) {
	if jaccard < 0 || jaccard > 1 {
		panic(fmt.Sprintf("gen: jaccard %v out of [0, 1]", jaccard))
	}
	c := int(2*float64(size)*jaccard/(1+jaccard) + 0.5)
	if c > size {
		c = size
	}
	return c
}
