package metrics

import (
	"fmt"
	"time"
)

// ShardStat is one ingestion shard's health snapshot, as reported by the
// sharded engine: how much the shard has accepted and applied, how far its
// queue is behind, and how loaded its private bit array is. A fleet of
// these is the operational view of a sharded deployment — uneven Enqueued
// across shards means routing skew, growing Backlog means the shard's
// worker cannot keep up, and β drifting toward 1/2 means the shard's
// array is saturating.
type ShardStat struct {
	// Shard is the shard index in [0, N).
	Shard int
	// Enqueued counts edges accepted for this shard (including edges not
	// yet applied); Processed counts edges applied to the shard sketch.
	Enqueued, Processed uint64
	// QueueBatches is the number of full batches waiting in the shard's
	// ingest queue.
	QueueBatches int
	// Beta is the shard array's 1-bit fraction (the paper's β, but for
	// this shard's private array only).
	Beta float64
	// Users is the number of users with live state on this shard.
	Users int
	// EdgesPerSec is the shard's average applied-edge throughput since
	// the engine started.
	EdgesPerSec float64
}

// Backlog returns the number of accepted-but-unapplied edges.
func (s ShardStat) Backlog() uint64 { return s.Enqueued - s.Processed }

// String renders the stat compactly for logs.
func (s ShardStat) String() string {
	return fmt.Sprintf("shard %d: %d applied (%d backlog), β=%.5f, %d users, %.0f edges/s",
		s.Shard, s.Processed, s.Backlog(), s.Beta, s.Users, s.EdgesPerSec)
}

// RateMeter converts a monotonically increasing event counter into
// interval rates: each Observe reports the rate since the previous
// Observe. It is the windowed counterpart of ShardStat.EdgesPerSec (which
// averages over the engine's whole lifetime) and is what throughput
// harnesses and dashboards sample. Not safe for concurrent use.
type RateMeter struct {
	lastCount uint64
	lastTime  time.Time
	started   bool
}

// Observe records the counter value at time now and returns the rate per
// second since the previous observation. The first call only arms the
// meter and returns 0.
func (m *RateMeter) Observe(count uint64, now time.Time) float64 {
	if !m.started {
		m.lastCount, m.lastTime, m.started = count, now, true
		return 0
	}
	dt := now.Sub(m.lastTime).Seconds()
	dc := count - m.lastCount
	m.lastCount, m.lastTime = count, now
	if dt <= 0 {
		return 0
	}
	return float64(dc) / dt
}
