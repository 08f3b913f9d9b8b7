package main

import (
	"fmt"
	"math/rand"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// streamSpec sizes one workload's input stream. Every field is set from a
// named constant in spec.go; the tests use a tiny instance of the same
// struct.
type streamSpec struct {
	// Background population: users 0..users-1, id = Zipf rank, so the heavy
	// users (and with them the shard skew) are the same for every seed and
	// only the edge sequence varies.
	users        int
	zipfS, zipfV float64
	// items is the per-user item space, a power of two. A user's n-th
	// subscription is an odd-stride walk over it, which keeps every live
	// window duplicate-free without a dedupe set.
	items uint64
	// baseEdges is the number of background edges per base segment (the
	// preload of an unwindowed workload, one epoch of a windowed one);
	// deleteShare of them unsubscribe the user's oldest live item.
	baseEdges   int
	deleteShare float64
	// blockEdges is the forward half of an unwindowed churn cycle.
	blockEdges int
	// Planted clusters: clusters x members users with ids from users up,
	// each holding clusterSize items per base segment of which a share set
	// by jaccards[cluster % len] is common to the cluster, plus extras
	// items that are subscribed and unsubscribed inside the segment.
	clusters, members, clusterSize, extras int
	jaccards                               []float64
	// epochs is the ring size of a windowed workload, 0 for unwindowed.
	epochs int
}

// plantedItemBase keeps planted item ids disjoint from every background
// item (which stay below 2^44 + items).
const plantedItemBase = uint64(1) << 60

// workloadData is the generated input of one run.
//
// cycle is the churn sequence the timed phases replay: applying all of it
// returns the program to its preload state. For an unwindowed workload it
// is a forward block followed by its inverse (reversed, every insert
// turned into the matching delete); for a windowed one it is the ring's
// epochs, each written after the window has rotated the same epoch's
// previous copy out. parity lists the offsets at which the state equals
// the preload state, rotate the offsets before which the window rotates.
type workloadData struct {
	spec    streamSpec
	seed    int64
	cycle   []stream.Edge
	parity  []int
	rotate  map[int]bool
	planted []plantedPair
	// plantedUsers lists every planted user, cluster by cluster.
	plantedUsers []stream.User
}

// plantedPair is one pair with analytically known Jaccard.
type plantedPair struct {
	u, v    stream.User
	jaccard float64
}

// feed receives generated edges in stream order; rotateBefore asks a
// windowed stack to rotate its window first. The slice is the generator's
// and holds these edges only until feed returns.
type feed func(edges []stream.Edge, rotateBefore bool) error

// userWin is a user's live subscription window: items n in [lo, hi).
type userWin struct{ lo, hi uint32 }

// background generates the Zipf churn of one segment.
type background struct {
	spec     streamSpec
	rng      *rand.Rand
	zipf     *rand.Zipf
	win      []userWin
	itemBase uint64
}

func newBackground(spec streamSpec, seed int64, itemBase uint64) *background {
	rng := rand.New(rand.NewSource(seed))
	return &background{
		spec:     spec,
		rng:      rng,
		zipf:     rand.NewZipf(rng, spec.zipfS, spec.zipfV, uint64(spec.users-1)),
		win:      make([]userWin, spec.users),
		itemBase: itemBase,
	}
}

func (b *background) item(u uint64, n uint32) stream.Item {
	stride := hashing.Mix64(u) | 1
	start := hashing.Mix64(u ^ 0x6974656d)
	return stream.Item(b.itemBase + (start+uint64(n)*stride)&(b.spec.items-1))
}

// next returns the next background element: a Zipf-drawn user either drops
// its oldest live item or subscribes to its next one.
func (b *background) next() stream.Edge {
	u := b.zipf.Uint64()
	w := &b.win[u]
	if w.lo < w.hi && b.rng.Float64() < b.spec.deleteShare {
		e := stream.Edge{User: stream.User(u), Item: b.item(u, w.lo), Op: stream.Delete}
		w.lo++
		return e
	}
	if uint64(w.hi-w.lo) >= b.spec.items {
		panic(fmt.Sprintf("benchmark: user %d outgrew the %d-item space", u, b.spec.items))
	}
	e := stream.Edge{User: stream.User(u), Item: b.item(u, w.hi), Op: stream.Insert}
	w.hi++
	return e
}

// plantedUser returns the id of member j of cluster c.
func (s streamSpec) plantedUser(c, j int) stream.User {
	return stream.User(s.users + c*s.members + j)
}

// common returns the number of items cluster c's members share.
func (s streamSpec) common(c int) int {
	return gen.PlantedJaccard(s.clusterSize, s.jaccards[c%len(s.jaccards)])
}

// plantedItem names item i of owner j (0 = the cluster's shared core,
// j+1 = member j's private tail) in cluster c of segment seg.
func plantedItem(seg, c, owner, i int) stream.Item {
	return stream.Item(plantedItemBase | uint64(seg)<<52 | uint64(c)<<32 | uint64(owner)<<20 | uint64(i))
}

// plantedOrder is one segment's planted sub-stream: every member's
// clusterSize subscriptions in shuffled order, then the extras subscribed,
// then the same extras unsubscribed. Consumed in order it is feasible. It
// holds four bytes an element and makes each edge when asked, so that the
// generator's own memory stays small beside the program's (rss_mb is
// the whole process's).
type plantedOrder struct {
	spec  streamSpec
	seg   int
	order []uint32
}

func (s streamSpec) plantedOrder(seg int, rng *rand.Rand) plantedOrder {
	users := s.clusters * s.members
	base, extras := users*s.clusterSize, users*s.extras
	order := make([]uint32, base+2*extras)
	for i := range order {
		order[i] = uint32(i)
	}
	for _, part := range [][]uint32{order[:base], order[base : base+extras], order[base+extras:]} {
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	return plantedOrder{s, seg, order}
}

// edge returns element p of the sub-stream.
func (po plantedOrder) edge(p int) stream.Edge {
	s := po.spec
	base, extras := s.clusters*s.members*s.clusterSize, s.clusters*s.members*s.extras
	n, op := int(po.order[p]), stream.Insert
	if n < base {
		member, i := n/s.clusterSize, n%s.clusterSize
		c, j := member/s.members, member%s.members
		owner := j + 1 // the member's private tail
		if i < s.common(c) {
			owner = 0 // the cluster's shared core
		}
		return stream.Edge{User: s.plantedUser(c, j), Item: plantedItem(po.seg, c, owner, i), Op: op}
	}
	if n -= base; n >= extras {
		n, op = n-extras, stream.Delete
	}
	member, i := n/s.extras, n%s.extras
	c, j := member/s.members, member%s.members
	return stream.Edge{User: s.plantedUser(c, j), Item: plantedItem(po.seg, c, j+1, s.clusterSize+i), Op: op}
}

// genChunk is how many edges a generator hands to its feed at a time.
const genChunk = 1 << 14

// segment generates base segment seg — baseEdges background elements with
// the planted sub-stream spread evenly through them — and returns the
// background state so a churn block can continue from it. The slice emit
// receives is reused for the next chunk.
func (s streamSpec) segment(seed int64, seg int, emit func([]stream.Edge) error) (*background, error) {
	bg := newBackground(s, seed+int64(seg)*7919, uint64(seg)<<44)
	planted := s.plantedOrder(seg, rand.New(rand.NewSource(seed^0x706c616e74+int64(seg))))
	total := s.baseEdges + len(planted.order)
	buf := make([]stream.Edge, 0, genChunk)
	p := 0
	for i := 0; i < total; i++ {
		// Planted element p is due once i/total has passed p/len(planted).
		if p < len(planted.order) && (i+1)*len(planted.order) >= (p+1)*total {
			buf = append(buf, planted.edge(p))
			p++
		} else {
			buf = append(buf, bg.next())
		}
		if len(buf) == genChunk || i == total-1 {
			if err := emit(buf); err != nil {
				return nil, err
			}
			buf = buf[:0]
		}
	}
	return bg, nil
}

// generate builds a run's input: it streams the preload into load and
// returns the churn cycle. The same (spec, seed) always yields the same
// edges, so a second call with another feed replays the preload for the
// oracle without keeping it in memory.
func generate(spec streamSpec, seed int64, load feed) (*workloadData, error) {
	d := &workloadData{spec: spec, seed: seed, rotate: map[int]bool{}}
	for c := 0; c < spec.clusters; c++ {
		common := spec.common(c)
		within := float64(common) / float64(2*spec.clusterSize-common)
		for j := 0; j < spec.members; j++ {
			d.plantedUsers = append(d.plantedUsers, spec.plantedUser(c, j))
			for l := j + 1; l < spec.members; l++ {
				d.planted = append(d.planted, plantedPair{spec.plantedUser(c, j), spec.plantedUser(c, l), within})
			}
			// One cross-cluster pair per within pair keeps the two kinds
			// balanced in est_rmse.
			for l := j + 1; l < spec.members; l++ {
				oc := (c + 1 + (j+l)%(spec.clusters-1)) % spec.clusters
				d.planted = append(d.planted, plantedPair{spec.plantedUser(c, j), spec.plantedUser(oc, l), 0})
			}
		}
	}

	if spec.epochs > 0 {
		// Windowed: the preload is the ring's epochs and the cycle writes
		// the same epochs again, each after its old copy has rotated out.
		d.parity = append(d.parity, 0)
		for e := 0; e < spec.epochs; e++ {
			start := len(d.cycle)
			d.rotate[start] = true
			if _, err := spec.segment(seed, e, func(edges []stream.Edge) error {
				d.cycle = append(d.cycle, edges...)
				return nil
			}); err != nil {
				return nil, err
			}
			d.parity = append(d.parity, len(d.cycle))
			if err := load(d.cycle[start:], e > 0); err != nil {
				return nil, err
			}
		}
		return d, nil
	}

	bg, err := spec.segment(seed, 0, func(edges []stream.Edge) error { return load(edges, false) })
	if err != nil {
		return nil, err
	}
	// The forward block continues the background churn and gives every
	// planted user one fresh item, so planted reads see the churn too.
	d.cycle = make([]stream.Edge, 0, 2*(spec.blockEdges+len(d.plantedUsers)))
	every := spec.blockEdges / (len(d.plantedUsers) + 1)
	p := 0
	for i := 0; i < spec.blockEdges; i++ {
		d.cycle = append(d.cycle, bg.next())
		if p < len(d.plantedUsers) && (i+1)%every == 0 {
			u := d.plantedUsers[p]
			c, j := p/spec.members, p%spec.members
			d.cycle = append(d.cycle, stream.Edge{User: u, Item: plantedItem(1, c, j+1, 0), Op: stream.Insert})
			p++
		}
	}
	// The inverse half: the forward half reversed, every insert turned into
	// the matching delete, so that the whole cycle restores the state before
	// it and is feasible whenever its forward half is.
	half := len(d.cycle)
	d.cycle = d.cycle[:2*half]
	for i, e := range d.cycle[:half] {
		e.Op ^= 1 // Insert <-> Delete
		d.cycle[2*half-1-i] = e
	}
	d.parity = []int{0, len(d.cycle)}
	return d, nil
}

// inverted returns edges reversed with every insert turned into the
// matching delete and back: applied after edges it restores the state
// before them, and it is feasible whenever edges is.
func inverted(edges []stream.Edge) []stream.Edge {
	out := make([]stream.Edge, len(edges))
	for i, e := range edges {
		e.Op ^= 1 // Insert <-> Delete
		out[len(edges)-1-i] = e
	}
	return out
}

// nextParity returns the first parity offset at or after off.
func (d *workloadData) nextParity(off int) int {
	for _, p := range d.parity {
		if p >= off {
			return p
		}
	}
	panic("benchmark: offset outside the cycle")
}

// apply folds cycle[from:to) into apply-only state (an oracle sketch or an
// exact store) with the window's semantics: a rotation retires the epoch's
// previous copy, which for parity state is the same edges with every op
// flipped.
func (d *workloadData) apply(from, to int, process func([]stream.Edge)) {
	for from < to {
		// Rotations happen only at parity points, so a stretch up to the
		// next one holds at most the rotation at its start.
		end := d.nextParity(from + 1)
		if d.rotate[from] {
			process(inverted(d.cycle[from:end]))
		}
		next := min(to, end)
		process(d.cycle[from:next])
		from = next
	}
}
