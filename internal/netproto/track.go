package netproto

// WindowSize is the per-session reorder/replay window: a frame whose
// sequence number is within WindowSize of the highest seen can still be
// applied late (reordering) or recognized as a duplicate (replay); older
// frames are dropped as stale because the tracker can no longer tell a
// late original from a replay — and applying a replay would corrupt XOR
// parity, so uncertainty resolves to dropping.
const WindowSize = 64

// Verdict is the tracker's ruling on one data frame.
type Verdict uint8

const (
	// VerdictApply: first sight of this sequence — fold the batch in.
	VerdictApply Verdict = iota
	// VerdictReplay: this sequence was already applied — drop the batch
	// (applying an XOR batch twice would silently corrupt parity).
	VerdictReplay
	// VerdictStale: older than the reorder window — drop the batch (it
	// cannot be proven fresh). A sender reusing a session id after a
	// restart lands here; restarts must mint a fresh session id.
	VerdictStale
)

// SessionCounters is one session's delivery ledger.
type SessionCounters struct {
	// Highest is the highest sequence number seen.
	Highest uint64
	// Applied counts frames ruled VerdictApply.
	Applied uint64
	// Late counts the subset of Applied that arrived out of order (their
	// sequence was below Highest when they arrived).
	Late uint64
	// Gaps counts frames confirmed lost: sequences that slid out of the
	// reorder window without ever arriving. Confirmation is lazy — a
	// missing sequence is counted once WindowSize newer frames have
	// passed it, so the newest holes are still pending, not yet gaps.
	Gaps uint64
	// Replays counts duplicates dropped.
	Replays uint64
	// Stale counts frames dropped as older than the reorder window.
	Stale uint64
}

// sessionState is SessionCounters plus the reorder window bitmap: bit i
// set means sequence (Highest - i) was applied, for i in [0, WindowSize).
// start is the first sequence observed; window positions serially before
// it were never covered by the session and are not gap candidates.
type sessionState struct {
	SessionCounters
	window   uint64
	start    uint64
	lastTick uint64
}

// slideGaps confirms gaps for the d window positions about to slide out:
// each zero bit leaving the window is a sequence that never arrived. Only
// positions at or after the session's first frame count — a session that
// opened at sequence s never covered s-1 and below.
func (s *sessionState) slideGaps(d uint64) {
	if d > WindowSize {
		d = WindowSize
	}
	for j := uint64(WindowSize - d); j < WindowSize; j++ {
		p := s.Highest - j
		if s.window&(uint64(1)<<j) == 0 && p-s.start < 1<<63 {
			s.Gaps++
		}
	}
}

// Tracker rules on per-session sequence numbers. The session table is
// bounded: at capacity, the least-recently-active session is evicted (its
// counters fold into the evicted totals; if its sender is still alive,
// its next frame restarts the session from that frame's sequence).
// Not safe for concurrent use — the Receiver serializes access.
type Tracker struct {
	maxSessions int
	sessions    map[uint64]*sessionState
	tick        uint64
	evicted     uint64

	// Aggregate counters across all sessions ever seen (evicted included).
	totals SessionCounters
}

// NewTracker builds a Tracker holding at most maxSessions concurrent
// sessions (<= 0 selects 1024).
func NewTracker(maxSessions int) *Tracker {
	if maxSessions <= 0 {
		maxSessions = 1024
	}
	return &Tracker{
		maxSessions: maxSessions,
		sessions:    make(map[uint64]*sessionState, maxSessions),
	}
}

// Sessions returns the number of live sessions.
func (t *Tracker) Sessions() int { return len(t.sessions) }

// Evicted returns how many sessions have been evicted at capacity.
func (t *Tracker) Evicted() uint64 { return t.evicted }

// Totals returns the aggregate counters across every session ever seen.
// Highest is meaningless across sessions and is left zero.
func (t *Tracker) Totals() SessionCounters {
	agg := t.totals
	agg.Highest = 0
	for _, s := range t.sessions {
		agg.Applied += s.Applied
		agg.Late += s.Late
		agg.Gaps += s.Gaps
		agg.Replays += s.Replays
		agg.Stale += s.Stale
	}
	return agg
}

// Observe rules on sequence seq of session. Sequence comparison is
// serial-number arithmetic (distance < 2^63 means newer), so a session
// whose counter wraps past 2^64 keeps working — the wrapped 0 is "newer"
// than the pre-wrap maximum.
func (t *Tracker) Observe(session, seq uint64) Verdict {
	t.tick++
	s, ok := t.sessions[session]
	if !ok {
		s = t.insert(session)
		s.Highest = seq
		s.start = seq
		s.window = 1
		s.Applied++
		s.lastTick = t.tick
		return VerdictApply
	}
	s.lastTick = t.tick

	d := seq - s.Highest // wrapping distance
	switch {
	case d == 0:
		s.Replays++
		return VerdictReplay
	case d < 1<<63:
		// Newer: slide the window forward by d. Set bits pushed past
		// WindowSize leave as applied history; zero bits that leave are
		// sequences that never arrived — confirmed lost. A jump past the
		// whole window additionally confirms the skipped sequences that
		// don't even land in the new window (the newest WindowSize-1 of
		// them stay pending as zero bits, confirmable later).
		s.slideGaps(d)
		if d >= WindowSize {
			s.Gaps += d - WindowSize
			s.window = 1
		} else {
			s.window = s.window<<d | 1
		}
		s.Highest = seq
		s.Applied++
		return VerdictApply
	default:
		// Older than Highest: late arrival, replay, or too old to tell.
		off := s.Highest - seq
		if off >= WindowSize {
			s.Stale++
			return VerdictStale
		}
		bit := uint64(1) << off
		if s.window&bit != 0 {
			s.Replays++
			return VerdictReplay
		}
		s.window |= bit
		s.Applied++
		s.Late++
		return VerdictApply
	}
}

// AckFor builds the ack answering a FlagAckRequest on (session, echoSeq).
// It reflects the session's ledger after the frame was ruled on; unknown
// sessions (possible only after an eviction race) answer zeros.
func (t *Tracker) AckFor(session, echoSeq uint64) Ack {
	a := Ack{Session: session, EchoSeq: echoSeq}
	if s, ok := t.sessions[session]; ok {
		a.Highest = s.Highest
		a.Applied = s.Applied
		a.Gaps = s.Gaps
		a.Replays = s.Replays
	}
	return a
}

// insert adds a fresh session, evicting the least-recently-active one at
// capacity. Eviction is a linear scan: the table is small (default 1024)
// and eviction only fires when a new sender arrives at capacity, not per
// frame.
func (t *Tracker) insert(session uint64) *sessionState {
	if len(t.sessions) >= t.maxSessions {
		var oldest uint64
		var oldestTick uint64
		first := true
		for id, s := range t.sessions {
			if first || s.lastTick < oldestTick {
				oldest, oldestTick, first = id, s.lastTick, false
			}
		}
		old := t.sessions[oldest]
		t.totals.Applied += old.Applied
		t.totals.Late += old.Late
		t.totals.Gaps += old.Gaps
		t.totals.Replays += old.Replays
		t.totals.Stale += old.Stale
		delete(t.sessions, oldest)
		t.evicted++
	}
	s := &sessionState{}
	t.sessions[session] = s
	return s
}
