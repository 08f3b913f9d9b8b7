// Package rp_test holds the Random Pairing baseline's tests at the import
// path they have always had; the type lives in internal/similarity.
package rp_test

import (
	"math"
	"testing"

	"github.com/vossketch/vos/internal/similarity"
	"github.com/vossketch/vos/internal/stream"
)

func TestUniformityAfterDeletions(t *testing.T) {
	// The property MinHash/OPH lack: insert [0, 16), delete the even
	// items; samples must be uniform over the surviving odd items.
	const k = 4000
	s := similarity.NewRP(k, 5)
	for i := 0; i < 16; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
	}
	for i := 0; i < 16; i += 2 {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Delete})
	}
	counts := make([]int, 8)
	filled := 0
	for j := 0; j < k; j++ {
		it, ok := s.Sample(1, j)
		if !ok {
			continue
		}
		filled++
		if it%2 == 0 {
			t.Fatalf("sampler %d holds deleted item %d", j, it)
		}
		counts[it/2]++
	}
	// A sampler whose item was deleted stays empty until a compensating
	// insertion arrives (RP semantics), so ~half the samplers survive:
	// P(sample among the 8 deleted of 16) = 1/2.
	if filled < 4*k/10 || filled > 6*k/10 {
		t.Fatalf("%d/%d samplers filled, want ~half", filled, k)
	}
	checkChiSquare(t, counts, filled)
}

func TestUniformityAfterDeleteThenReinsert(t *testing.T) {
	// Delete everything, reinsert a fresh set: samples must be uniform
	// over the new set and never reference the old one.
	const k = 3000
	s := similarity.NewRP(k, 7)
	for i := 0; i < 10; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
	}
	for i := 0; i < 10; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Delete})
	}
	if s.Cardinality(1) != 0 {
		t.Fatalf("n = %d after full deletion", s.Cardinality(1))
	}
	for i := 100; i < 104; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
	}
	counts := make([]int, 4)
	filled := 0
	for j := 0; j < k; j++ {
		it, ok := s.Sample(1, j)
		if !ok {
			continue
		}
		filled++
		if it < 100 || it > 103 {
			t.Fatalf("stale item %d sampled", it)
		}
		counts[it-100]++
	}
	if filled == 0 {
		t.Fatal("no sampler refilled")
	}
	checkChiSquare(t, counts, filled)
}

func TestEstimateCommonItems(t *testing.T) {
	// With k samplers, E[matches] = k·s/(n_u·n_v). Use a large k so the
	// estimate concentrates.
	const (
		k      = 20000
		n      = 40
		common = 20
	)
	s := similarity.NewRP(k, 11)
	// User 1: items [0, 40). User 2: items [20, 60). Common: [20, 40).
	for i := 0; i < n; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
		s.Process(stream.Edge{User: 2, Item: stream.Item(i + common), Op: stream.Insert})
	}
	est := s.EstimateCommonItems(1, 2)
	// E[matches] = k·20/1600 = 250; σ ≈ √250 ≈ 16 ⇒ ŝ σ ≈ 1.3.
	if math.Abs(est-common) > 5 {
		t.Errorf("ŝ = %.1f, want ~%d", est, common)
	}
	trueJ := float64(common) / float64(2*n-common)
	if got := s.EstimateJaccard(1, 2); math.Abs(got-trueJ) > 0.12 {
		t.Errorf("Ĵ = %.3f, want ~%.3f", got, trueJ)
	}
}

func TestEstimateUnbiasedAfterDeletions(t *testing.T) {
	// The headline property: the estimator stays centred after heavy
	// deletions. Same final sets as TestEstimateCommonItems but built
	// with churn.
	const (
		k      = 20000
		common = 20
	)
	s := similarity.NewRP(k, 13)
	// Both users first subscribe [1000, 1100) then fully unsubscribe it.
	for i := 1000; i < 1100; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
		s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Insert})
	}
	for i := 1000; i < 1100; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Delete})
		s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Delete})
	}
	for i := 0; i < 40; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
		s.Process(stream.Edge{User: 2, Item: stream.Item(i + common), Op: stream.Insert})
	}
	est := s.EstimateCommonItems(1, 2)
	// Residual deletion debt leaves ~40% of samplers filled per user,
	// so ~16% of pairs contribute; σ(ŝ) ≈ 3.5 at this k.
	if math.Abs(est-common) > 10 {
		t.Errorf("ŝ = %.1f after churn, want ~%d (uniformity broken)", est, common)
	}
}

func TestJaccardClamped(t *testing.T) {
	// Tiny k: a single collision makes raw ŝ = n_u·n_v/k ≫ n; Jaccard
	// must stay in [0, 1].
	s := similarity.NewRP(1, 17)
	for i := 0; i < 50; i++ {
		s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
		s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Insert})
	}
	j := s.EstimateJaccard(1, 2)
	if j < 0 || j > 1 {
		t.Errorf("Ĵ = %v out of [0, 1]", j)
	}
}

func TestDeterministic(t *testing.T) {
	build := func() *similarity.RP {
		s := similarity.NewRP(32, 9)
		for i := 0; i < 100; i++ {
			s.Process(stream.Edge{User: stream.User(i % 3), Item: stream.Item(i), Op: stream.Insert})
		}
		for i := 0; i < 50; i += 5 {
			s.Process(stream.Edge{User: stream.User(i % 3), Item: stream.Item(i), Op: stream.Delete})
		}
		return s
	}
	a, b := build(), build()
	for u := stream.User(0); u < 3; u++ {
		for j := 0; j < 32; j++ {
			ia, oka := a.Sample(u, j)
			ib, okb := b.Sample(u, j)
			if ia != ib || oka != okb {
				t.Fatalf("user %d sampler %d diverged", u, j)
			}
		}
	}
}

// checkChiSquare verifies counts are consistent with a uniform draw of
// total samples over len(counts) categories at a very loose significance
// level (guarding against gross non-uniformity, not statistical noise).
func checkChiSquare(t *testing.T, counts []int, total int) {
	t.Helper()
	expected := float64(total) / float64(len(counts))
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 99.99th percentile of chi-square with df ≤ 15 is < 45.
	if chi2 > 45 {
		t.Errorf("chi-square %.1f over %d categories (counts %v)", chi2, len(counts), counts)
	}
}
