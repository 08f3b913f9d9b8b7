// Package lsh implements banded locality-sensitive hashing over
// signatures — the standard candidate-generation structure for Jaccard
// near-neighbor search, and the application context of the densification
// line of work the paper cites (Shrivastava & Li ICML'14/UAI'14, ICML'17:
// "densifying one permutation hashing … for fast near neighbor search").
//
// The index splits a k-register signature into b bands of r rows
// (b·r = k); each band is hashed to a bucket, and two users collide in the
// index if any band matches exactly. The probability a pair at Jaccard
// similarity J collides is 1 − (1 − J^r)^b, the classic S-curve: pairs
// above the curve's threshold (≈ (1/b)^(1/r)) are found with high
// probability, pairs far below are filtered out without any pairwise work.
//
// Pipelines that need similarity *values*, not just candidates, verify the
// LSH candidates against a sketch estimator — internal/engine scores
// BandIndex candidates with VOS's recovered-sketch estimator.
package lsh
