package similarity

import (
	"slices"

	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// Densification fills the empty bins of a static OPH signature so the plain
// "fraction of equal registers" estimator applies with the full k
// denominator. All schemes must fill an empty bin as a deterministic
// function of (bin index, occupancy pattern, donor values) that both sides
// of a comparison share, so that two users with identical occupied bins get
// identical fills — that is what preserves the collision probability.
//
// The three schemes implemented are the ones the paper's related-work
// section cites:
//
//   - DensifyRotation — ICML'14: an empty bin borrows from the nearest
//     non-empty bin to its right (circularly), offset by the distance so
//     that borrowed values from different distances cannot collide.
//   - DensifyImproved — UAI'14: each empty bin flips a direction coin
//     (an independent hash of the bin index) and borrows from the nearest
//     non-empty bin left or right, halving the variance of pure rotation.
//   - DensifyOptimal — ICML'17: each empty bin probes donor bins using a
//     2-universal hash of (bin, attempt) until it hits a non-empty bin,
//     making every donor equally likely and achieving the variance lower
//     bound.
//
// Densified signatures are only meaningful for static (insertion-only)
// sets; after a dynamic deletion empties a bin the donor structure is no
// longer exchangeable. The dynamic experiments therefore use the sparse
// NIPS'12 estimator, and densification appears in the abl-dense ablation.

// Densified is a filled signature ready for register-wise comparison.
type Densified struct{ vals []uint64 }

// offsetC separates borrowed values by distance: a value borrowed from
// distance d is offset by d·offsetC, so equal registers imply equal donors
// at equal distances (the ICML'14 construction's C constant).
const offsetC = 0x9e3779b97f4a7c15

// densify fills every empty bin of user u from the first occupied bin its
// scheme's probe sequence donor(bin, attempt) reaches, attempt = 1, 2, …,
// offset by the attempt. The sequence must depend only on the bin index and
// the sketch seed, never on the user, so both sides of a comparison agree.
// It panics if every bin is empty (an empty set has no signature).
func (s *OPH) densify(u stream.User, donor func(bin, attempt int) int) *Densified {
	vals, occ := s.Signature(u)
	if !slices.Contains(occ, true) {
		panic("similarity: cannot densify an all-empty signature")
	}
	for j := range vals {
		if occ[j] {
			continue
		}
		for attempt := 1; ; attempt++ {
			if src := donor(j, attempt); occ[src] {
				vals[j] = vals[src] + uint64(attempt)*offsetC
				break
			}
		}
	}
	return &Densified{vals: vals}
}

// DensifyRotation applies the ICML'14 rotation scheme to user u's bins.
func (s *OPH) DensifyRotation(u stream.User) *Densified {
	return s.densify(u, func(j, d int) int { return (j + d) % s.k })
}

// DensifyImproved applies the UAI'14 scheme: per-bin random direction.
func (s *OPH) DensifyImproved(u stream.User) *Densified {
	return s.densify(u, func(j, d int) int {
		if hashing.Hash64(uint64(j), s.seed^0xd1b54a32d192ed03)&1 == 1 {
			return (j + d) % s.k
		}
		return (j - d%s.k + s.k) % s.k
	})
}

// DensifyOptimal applies the ICML'17 scheme: 2-universal probing.
func (s *OPH) DensifyOptimal(u stream.User) *Densified {
	tu := hashing.NewTwoUniversal(s.seed ^ 0x2545f4914f6cdd1d)
	return s.densify(u, func(j, attempt int) int {
		return int(tu.HashRange(uint64(j)<<20|uint64(attempt), uint64(s.k)))
	})
}

// EstimateJaccard compares two densified signatures register-wise over the
// full k denominator.
func (d *Densified) EstimateJaccard(o *Densified) float64 {
	if len(d.vals) != len(o.vals) {
		panic("similarity: incompatible densified signatures")
	}
	matches := 0
	for j, v := range d.vals {
		if v == o.vals[j] {
			matches++
		}
	}
	return float64(matches) / float64(len(d.vals))
}
