package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestShardStatBacklogAndString(t *testing.T) {
	s := ShardStat{Shard: 2, Enqueued: 10, Processed: 7, Beta: 0.25, Users: 3, EdgesPerSec: 100}
	if s.Backlog() != 3 {
		t.Fatalf("Backlog = %d, want 3", s.Backlog())
	}
	str := s.String()
	for _, frag := range []string{"shard 2", "7 applied", "3 backlog", "0.25000", "3 users"} {
		if !strings.Contains(str, frag) {
			t.Fatalf("String() = %q, missing %q", str, frag)
		}
	}
}

func TestRateMeter(t *testing.T) {
	var m RateMeter
	t0 := time.Unix(1000, 0)
	if r := m.Observe(100, t0); r != 0 {
		t.Fatalf("first Observe = %v, want 0 (arming)", r)
	}
	if r := m.Observe(600, t0.Add(2*time.Second)); r != 250 {
		t.Fatalf("rate = %v, want 250", r)
	}
	// Zero elapsed time must not divide by zero.
	if r := m.Observe(700, t0.Add(2*time.Second)); r != 0 {
		t.Fatalf("zero-interval rate = %v, want 0", r)
	}
}
