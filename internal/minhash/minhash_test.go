// Package minhash_test holds the MinHash baseline's tests at the import path
// they have always had; the type lives in internal/similarity.
package minhash_test

import (
	"testing"

	"github.com/vossketch/vos/internal/similarity"
	"github.com/vossketch/vos/internal/stream"
)

func TestDeletionEmptiesRegister(t *testing.T) {
	s := similarity.NewMinHash(16, 1)
	s.Process(stream.Edge{User: 1, Item: 77, Op: stream.Insert})
	// Every register now holds item 77; deleting it empties all.
	s.Process(stream.Edge{User: 1, Item: 77, Op: stream.Delete})
	sig, occ := s.Signature(1)
	for j, h := range sig {
		if occ[j] {
			t.Errorf("register %d not emptied: %x", j, h)
		}
	}
	if s.Cardinality(1) != 0 {
		t.Errorf("cardinality %d", s.Cardinality(1))
	}
}

func TestDeletionOfNonMinimumKeepsRegister(t *testing.T) {
	s := similarity.NewMinHash(8, 2)
	s.Process(stream.Edge{User: 1, Item: 1, Op: stream.Insert})
	s.Process(stream.Edge{User: 1, Item: 2, Op: stream.Insert})
	before, _ := s.Signature(1)
	// For each register, deleting the item that is NOT the minimum must
	// leave the register unchanged. Delete both items from a clone-like
	// second user to find which one is the min per register; simpler:
	// delete item 2, then registers whose min was item 1 are unchanged.
	s.Process(stream.Edge{User: 1, Item: 2, Op: stream.Delete})
	after, occ := s.Signature(1)
	changed := 0
	for j := range before {
		if before[j] != after[j] {
			changed++
			if occ[j] {
				t.Errorf("register %d changed to a non-empty value", j)
			}
		}
	}
	if changed == len(before) {
		t.Error("all registers emptied; min detection broken")
	}
}

func TestDeletionBiasExists(t *testing.T) {
	// The documented §III flaw: after deletions, registers empty out and
	// the estimator loses matches it should keep, underestimating J.
	// Two identical sets (J=1): subscribe 200 shared items, then
	// unsubscribe 150 of them from both users. True J of the remaining
	// 50 shared items is still 1.0, but emptied registers never refill.
	const k = 128
	sumJ := 0.0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		s := similarity.NewMinHash(k, uint64(trial))
		for i := 0; i < 200; i++ {
			s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Insert})
			s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Insert})
		}
		for i := 0; i < 150; i++ {
			s.Process(stream.Edge{User: 1, Item: stream.Item(i), Op: stream.Delete})
			s.Process(stream.Edge{User: 2, Item: stream.Item(i), Op: stream.Delete})
		}
		sumJ += s.EstimateJaccard(1, 2)
	}
	avgJ := sumJ / trials
	if avgJ > 0.6 {
		t.Errorf("expected strong underestimate of J=1 after deletions, got %.3f"+
			" (bias disappeared; baseline no longer reproduces the paper's flaw)", avgJ)
	}
}

// TestFromSet: the static signature of an item set, the classic
// (insertion-only) use of the method.
func TestFromSet(t *testing.T) {
	fromSet := func() *similarity.MinHash {
		s := similarity.NewMinHash(64, 9)
		for _, it := range []stream.Item{10, 20, 30} {
			s.Process(stream.Edge{User: 0, Item: it, Op: stream.Insert})
		}
		return s
	}
	a, b := fromSet(), fromSet()
	sa, occ := a.Signature(0)
	sb, _ := b.Signature(0)
	for j := range sa {
		if sa[j] != sb[j] {
			t.Fatal("signature of a set not deterministic")
		}
		if !occ[j] {
			t.Fatal("register empty after inserts")
		}
	}
	if a.EstimateJaccard(0, 0) != 1 {
		t.Error("self Jaccard should be 1")
	}
}
