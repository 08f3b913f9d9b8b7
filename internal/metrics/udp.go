package metrics

import "fmt"

// UDPStats is the UDP ingest plane's counter snapshot, as reported by the
// datagram receiver (internal/netproto) and surfaced on /v1/stats. It is
// the operational answer to the one question a fire-and-forget XOR stream
// must keep answerable: has anything been lost, replayed, or rejected —
// i.e. has the sketch diverged from what the senders sent?
//
// GapsDetected > 0 means frames were confirmed lost (their sequence slid
// out of the reorder window without arriving): the sketch is missing
// those batches, knowably. ReplaysDropped counts duplicates the receiver
// refused to fold in twice; StaleDropped counts frames too old to prove
// fresh (including senders reusing a session id after a restart). All
// three staying zero means every received batch was applied exactly once.
type UDPStats struct {
	// FramesReceived counts datagrams read off the socket, well-formed or
	// not.
	FramesReceived uint64 `json:"frames_received"`
	// FramesApplied counts data frames folded into the sketch;
	// EdgesApplied is their summed edge count.
	FramesApplied uint64 `json:"frames_applied"`
	EdgesApplied  uint64 `json:"edges_applied"`
	// Malformed counts datagrams rejected by the frame decoder (bad
	// magic, version, type, truncated or forged payloads).
	Malformed uint64 `json:"malformed"`
	// GapsDetected counts frames confirmed lost across all sessions.
	GapsDetected uint64 `json:"gaps_detected"`
	// ReplaysDropped counts duplicate frames dropped; LateApplied counts
	// reordered frames that still arrived inside the window and were
	// applied out of order; StaleDropped counts frames older than the
	// window, dropped because a late original and a replay are no longer
	// distinguishable.
	ReplaysDropped uint64 `json:"replays_dropped"`
	LateApplied    uint64 `json:"late_applied"`
	StaleDropped   uint64 `json:"stale_dropped"`
	// AdmitRejected counts frames dropped by the shared ingest admission
	// budget (the datagram plane's form of backpressure: the frame is
	// shed and later surfaces as a gap to its sender).
	AdmitRejected uint64 `json:"admit_rejected"`
	// SinkErrors counts frames whose batch the engine refused (e.g.
	// mid-shutdown); their edges were not applied.
	SinkErrors uint64 `json:"sink_errors"`
	// AcksSent counts ack frames answered to FlagAckRequest senders.
	AcksSent uint64 `json:"acks_sent"`
	// Sessions is the number of live sender sessions; SessionsEvicted
	// counts sessions dropped because the bounded session table was full.
	Sessions        int    `json:"sessions"`
	SessionsEvicted uint64 `json:"sessions_evicted"`
}

// String renders the stats compactly for logs.
func (s UDPStats) String() string {
	return fmt.Sprintf("udp: %d frames (%d applied, %d edges), gaps=%d replays=%d stale=%d late=%d, %d sessions",
		s.FramesReceived, s.FramesApplied, s.EdgesApplied, s.GapsDetected, s.ReplaysDropped,
		s.StaleDropped, s.LateApplied, s.Sessions)
}

// Clean reports whether the plane has seen zero loss, replay, and
// rejection — the condition under which the sketch provably equals a
// clean-delivery run of the received stream.
func (s UDPStats) Clean() bool {
	return s.GapsDetected == 0 && s.ReplaysDropped == 0 && s.StaleDropped == 0 &&
		s.Malformed == 0 && s.AdmitRejected == 0 && s.SinkErrors == 0
}
