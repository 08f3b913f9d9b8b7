package similarity

import (
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// Random Pairing (Gemulla, Lehner & Haas, VLDB Journal 2008) is the
// bounded-memory uniform sampling scheme for evolving sets, extended per the
// paper's §III to similarity estimation: each user runs k independent
// capacity-1 RP samplers, and two users' samples match with probability
// s_uv/(n_u·n_v), giving the estimator
//
//	ŝ_uv = n_u·n_v · (1/k)·Σ_j 1(φ_j(S_u) = φ_j(S_v)).
//
// Unlike MinHash/OPH, RP samples remain exactly uniform under deletions
// (that is the whole point of the algorithm), so RP is the unbiased
// competitor in the paper's comparison — its weakness is variance: two
// independent uniform samples rarely collide, so at practical k the
// estimate is dominated by noise, which is what the paper's Figure 3
// shows.

// sampler is one capacity-1 Random Pairing sampler.
//
// RP bookkeeping: c1 counts uncompensated deletions that removed the
// sampled item, c2 uncompensated deletions of unsampled items. While
// c1+c2 > 0 the sampler is "in debt": new insertions first compensate
// prior deletions (joining the sample with probability c1/(c1+c2)) instead
// of running the plain reservoir step. This is exactly what keeps the
// sample uniform over the evolving set.
type sampler struct {
	item   stream.Item
	filled bool
	c1, c2 uint32
}

// userState holds a user's k samplers, the set size n_u, and the user's
// private PRNG stream (derived from the sketch seed and user ID, so state
// is independent of map iteration order and of other users).
type userState struct {
	samplers []sampler
	n        int64
	rng      uint64 // splitmix64 state
}

// RP runs k RP samplers per user over a fully dynamic stream.
type RP struct {
	k    int
	seed uint64
	st   map[stream.User]*userState
}

// NewRP creates an RP sketch with k samplers per user. The §V accounting
// charges it k registers of 32 bits a user (the deletion-debt counters are
// shared bookkeeping the paper's equalisation ignores for all methods alike).
func NewRP(k int, seed uint64) *RP {
	if k <= 0 {
		panic("similarity: k must be positive")
	}
	return &RP{k: k, seed: seed, st: make(map[stream.User]*userState)}
}

func (s *RP) state(u stream.User) *userState {
	st := s.st[u]
	if st == nil {
		st = &userState{
			samplers: make([]sampler, s.k),
			rng:      hashing.Hash64(uint64(u), s.seed),
		}
		s.st[u] = st
	}
	return st
}

// coin returns a uniform float64 in [0, 1) from the user's PRNG stream.
func (st *userState) coin() float64 {
	return hashing.Float01(hashing.SplitMix64(&st.rng))
}

// Name identifies the method in the evaluation's tables and figures.
func (s *RP) Name() string { return MethodRP }

// Process folds one element into the sketch in O(k): every sampler of the
// touched user takes an independent RP step.
func (s *RP) Process(e stream.Edge) {
	st := s.state(e.User)
	switch e.Op {
	case stream.Insert:
		st.n++
		for j := range st.samplers {
			sp := &st.samplers[j]
			if sp.c1+sp.c2 == 0 {
				// No deletion debt: plain capacity-1 reservoir step.
				if !sp.filled || st.coin() < 1/float64(st.n) {
					sp.item = e.Item
					sp.filled = true
				}
			} else {
				// Compensation phase: the insertion replaces one prior
				// deletion, joining the sample w.p. c1/(c1+c2).
				if st.coin() < float64(sp.c1)/float64(sp.c1+sp.c2) {
					sp.item = e.Item
					sp.filled = true
					sp.c1--
				} else {
					sp.c2--
				}
			}
		}
	case stream.Delete:
		st.n--
		for j := range st.samplers {
			sp := &st.samplers[j]
			if sp.filled && sp.item == e.Item {
				sp.filled = false
				sp.c1++
			} else {
				sp.c2++
			}
		}
	}
}

// Cardinality returns the tracked n_u.
func (s *RP) Cardinality(u stream.User) int64 {
	if st := s.st[u]; st != nil {
		return st.n
	}
	return 0
}

// Sample returns sampler j's current item for user u, with ok=false when
// the sampler is empty. Exposed for the uniformity tests.
func (s *RP) Sample(u stream.User, j int) (stream.Item, bool) {
	st := s.st[u]
	if st == nil || !st.samplers[j].filled {
		return 0, false
	}
	return st.samplers[j].item, true
}

// EstimateCommonItems implements the §III estimator
// ŝ = n_u·n_v·(1/k)·Σ 1(φ_j(S_u) = φ_j(S_v)). An RP sampler can be
// legitimately empty while in deletion debt (its sampled item was deleted
// and no compensating insertion has arrived), so the average runs over the
// sampler pairs where both sides hold a sample — each such pair is an
// unbiased Bernoulli(s/(n_u·n_v)) trial, and filled status is independent
// of which item is held, so the conditioning preserves unbiasedness.
func (s *RP) EstimateCommonItems(u, v stream.User) float64 {
	su, sv := s.st[u], s.st[v]
	if su == nil || sv == nil {
		return 0
	}
	matches, bothFilled := 0, 0
	for j := 0; j < s.k; j++ {
		a, b := &su.samplers[j], &sv.samplers[j]
		if a.filled && b.filled {
			bothFilled++
			if a.item == b.item {
				matches++
			}
		}
	}
	if bothFilled == 0 {
		return 0
	}
	return float64(su.n) * float64(sv.n) * float64(matches) / float64(bothFilled)
}

// EstimateJaccard converts ŝ through J = s/(n_u + n_v − s), clamped to
// [0, 1] (the raw ŝ can exceed the feasible range on a lucky collision
// because n_u·n_v/k ≫ 1 at practical k).
func (s *RP) EstimateJaccard(u, v stream.User) float64 {
	est := s.EstimateCommonItems(u, v)
	nu, nv := s.Cardinality(u), s.Cardinality(v)
	maxCommon := float64(nu)
	if nv < nu {
		maxCommon = float64(nv)
	}
	if est > maxCommon {
		est = maxCommon
	}
	if est < 0 {
		est = 0
	}
	union := float64(nu+nv) - est
	if union <= 0 {
		return 0
	}
	j := est / union
	if j > 1 {
		return 1
	}
	return j
}
