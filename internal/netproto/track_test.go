package netproto

import (
	"math"
	"testing"
)

// Session returns one live session's counters: the tests' view of the
// ledger the receiver reports only in aggregate.
func (t *Tracker) Session(session uint64) (SessionCounters, bool) {
	s, ok := t.sessions[session]
	if !ok {
		return SessionCounters{}, false
	}
	return s.SessionCounters, true
}

func TestTrackerInOrder(t *testing.T) {
	trk := NewTracker(0)
	for seq := uint64(0); seq < 200; seq++ {
		if v := trk.Observe(1, seq); v != VerdictApply {
			t.Fatalf("seq %d: verdict %d, want apply", seq, v)
		}
	}
	s, ok := trk.Session(1)
	if !ok {
		t.Fatal("session 1 missing")
	}
	if s.Applied != 200 || s.Gaps != 0 || s.Replays != 0 || s.Late != 0 || s.Stale != 0 || s.Highest != 199 {
		t.Fatalf("counters after clean run: %+v", s)
	}
}

func TestTrackerImmediateReplay(t *testing.T) {
	trk := NewTracker(0)
	trk.Observe(1, 5)
	if v := trk.Observe(1, 5); v != VerdictReplay {
		t.Fatalf("duplicate of current highest: verdict %d, want replay", v)
	}
}

func TestTrackerGapConfirmedWhenWindowSlides(t *testing.T) {
	trk := NewTracker(0)
	trk.Observe(1, 0)
	trk.Observe(1, 2) // 1 missing, still inside the window — not yet a gap
	if s, _ := trk.Session(1); s.Gaps != 0 {
		t.Fatalf("gap confirmed too early: %+v", s)
	}
	// Jump far enough that seq 1's bit slides out of the 64-wide window.
	// Exactly one gap confirms: seq 1. The sequences between 3 and 66 are
	// still pending zero bits in the new window, and the pre-session
	// positions below seq 0 must never be counted.
	trk.Observe(1, 2+WindowSize)
	s, _ := trk.Session(1)
	if s.Gaps != 1 {
		t.Fatalf("gaps = %d, want 1: %+v", s.Gaps, s)
	}
	if s.Applied != 3 {
		t.Fatalf("applied = %d, want 3", s.Applied)
	}
}

func TestTrackerHugeJumpCountsAllMissing(t *testing.T) {
	trk := NewTracker(0)
	trk.Observe(1, 0)
	// Jumping 0 → 1000 confirms the missing sequences that don't even
	// land in the new window (999 missing total, the newest 63 still
	// pending as window zero bits).
	trk.Observe(1, 1000)
	s, _ := trk.Session(1)
	if s.Gaps != 999-63 {
		t.Fatalf("gaps = %d, want %d", s.Gaps, 999-63)
	}
	// One more window-length jump slides those 63 pending holes out too.
	trk.Observe(1, 1000+WindowSize)
	if s, _ := trk.Session(1); s.Gaps != 999 {
		t.Fatalf("gaps = %d, want 999 after pending holes confirm", s.Gaps)
	}
}

func TestTrackerLateArrivalAppliesOnce(t *testing.T) {
	trk := NewTracker(0)
	trk.Observe(1, 0)
	trk.Observe(1, 2)
	// Seq 1 arrives late but inside the window: applied, counted Late.
	if v := trk.Observe(1, 1); v != VerdictApply {
		t.Fatalf("late original: verdict %d, want apply", v)
	}
	s, _ := trk.Session(1)
	if s.Late != 1 || s.Applied != 3 {
		t.Fatalf("after late arrival: %+v", s)
	}
	// Duplicate-after-gap: the same seq again must be recognized as a
	// replay even though it was never the highest.
	if v := trk.Observe(1, 1); v != VerdictReplay {
		t.Fatalf("duplicate after gap-fill: verdict %d, want replay", v)
	}
	if s, _ := trk.Session(1); s.Replays != 1 || s.Applied != 3 {
		t.Fatalf("after duplicate: %+v", s)
	}
}

func TestTrackerStaleDrop(t *testing.T) {
	trk := NewTracker(0)
	trk.Observe(1, 0)
	trk.Observe(1, 500)
	if v := trk.Observe(1, 400); v != VerdictStale {
		t.Fatalf("frame older than window: verdict %d, want stale", v)
	}
	if s, _ := trk.Session(1); s.Stale != 1 {
		t.Fatalf("stale not counted: %+v", s)
	}
}

func TestTrackerWraparound(t *testing.T) {
	trk := NewTracker(0)
	start := uint64(math.MaxUint64 - 2)
	// Sequence ...fffd, ...fffe, ...ffff, 0, 1, 2 — straight through wrap.
	for i := uint64(0); i < 6; i++ {
		seq := start + i // wraps
		if v := trk.Observe(7, seq); v != VerdictApply {
			t.Fatalf("wrap step %d (seq %d): verdict %d, want apply", i, seq, v)
		}
	}
	s, _ := trk.Session(7)
	if s.Gaps != 0 || s.Replays != 0 || s.Applied != 6 {
		t.Fatalf("wraparound counters: %+v", s)
	}
	if s.Highest != 2 {
		t.Fatalf("highest after wrap = %d, want 2", s.Highest)
	}
	// A pre-wrap duplicate must still read as a replay, not as far-future.
	if v := trk.Observe(7, math.MaxUint64); v != VerdictReplay {
		t.Fatalf("pre-wrap duplicate: verdict %d, want replay", v)
	}
}

func TestTrackerSessionRestart(t *testing.T) {
	trk := NewTracker(0)
	for seq := uint64(0); seq < 1000; seq++ {
		trk.Observe(9, seq)
	}
	// A sender restarting with the SAME session id restarts its sequence at
	// 0 — far below the window, indistinguishable from ancient replays, so
	// every frame drops as stale. This is the designed failure mode; the
	// remedy is a fresh session id.
	if v := trk.Observe(9, 0); v != VerdictStale {
		t.Fatalf("same-id restart: verdict %d, want stale", v)
	}
	// A fresh session id works immediately.
	if v := trk.Observe(10, 0); v != VerdictApply {
		t.Fatalf("fresh-id restart: verdict %d, want apply", v)
	}
}

func TestTrackerEvictionFoldsTotals(t *testing.T) {
	trk := NewTracker(2)
	trk.Observe(1, 0)
	trk.Observe(1, 2) // pending hole at seq 1
	trk.Observe(2, 0)
	trk.Observe(3, 0) // evicts session 1 (least recently active)
	if trk.Sessions() != 2 {
		t.Fatalf("sessions = %d, want 2", trk.Sessions())
	}
	if trk.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", trk.Evicted())
	}
	if _, ok := trk.Session(1); ok {
		t.Fatal("session 1 still live after eviction")
	}
	tot := trk.Totals()
	if tot.Applied != 4 {
		t.Fatalf("totals.Applied = %d, want 4 (evicted counters folded in)", tot.Applied)
	}
	// The evicted sender reappearing restarts from its next frame.
	if v := trk.Observe(1, 3); v != VerdictApply {
		t.Fatalf("post-eviction frame: verdict %d, want apply", v)
	}
}

func TestTrackerAckFor(t *testing.T) {
	trk := NewTracker(0)
	trk.Observe(4, 0)
	trk.Observe(4, 2)
	trk.Observe(4, 2) // replay
	a := trk.AckFor(4, 2)
	if a.Session != 4 || a.EchoSeq != 2 || a.Highest != 2 || a.Applied != 2 || a.Replays != 1 || a.Gaps != 0 {
		t.Fatalf("ack: %+v", a)
	}
	if a := trk.AckFor(999, 1); a.Applied != 0 || a.Highest != 0 {
		t.Fatalf("unknown-session ack not zeroed: %+v", a)
	}
}
