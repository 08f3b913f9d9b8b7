// Package wal implements the durability layer of the sharded VOS engine: a
// segmented, CRC-checksummed write-ahead log of edge operations plus an
// atomically written checkpoint of engine state, so an engine can restart
// from disk and replay only the stream suffix instead of the whole graph
// stream.
//
// Layout of a log directory:
//
//	wal-<base>.seg        segments; <base> is the stream position (total
//	                      edges appended before this segment) in 20 decimal
//	                      digits, so lexicographic order is replay order
//	checkpoint-<pos>.ckpt checkpoints; <pos> is the stream position the
//	                      snapshot covers
//	lock                  advisory flock guarding the directory against a
//	                      second live log (see Options.DisableLock)
//
// Segment format: an 8-byte magic "VOSWAL01", the u64 little-endian base
// position, then records. Each record frames one appended batch:
//
//	u32 LE payload length | u32 LE CRC-32C of payload | payload
//
// where the payload is a uvarint edge count followed by count edges in the
// stream binary-codec shape — uvarint (user<<1 | opBit), uvarint item: a
// binary stream body behind its magic, which is how AppendEncoded logs one
// byte for byte (varints the encoder would have made shorter included). The
// CRC makes torn or bit-rotted tails detectable: iteration stops cleanly at
// the first invalid frame of the last segment (a crash mid-append), and
// Open truncates that tail so the file ends at a record boundary again.
// Checkpoint granularity is the record (= accepted batch), so a checkpoint
// position never splits a record — which is what makes replay exact: VOS
// updates are XOR toggles, and replaying an edge twice would corrupt
// parity instead of being idempotent.
//
// Checkpoint format: an 8-byte magic "VOSCKPT1", u64 LE position, u64 LE
// state length, the state bytes, and a trailing u32 LE CRC-32C over
// everything before it. The state bytes are opaque to this package — the
// engine stores a plain merged sketch ("VOS1", core.VOS.MarshalBinary) or,
// in sliding-window mode, a bucket ring ("VWN1", core.Window.MarshalBinary).
// Checkpoints are written to a temp file, fsynced, and renamed into place,
// so a crash mid-checkpoint leaves the previous checkpoint intact; the
// newest two are retained so recovery can fall back past an unreadable one.
//
// # Concurrency and lifecycle
//
// A Log serialises its own appends internally and is safe for concurrent
// Append calls; SkipTo is a start-up-time operation on a log not yet
// receiving appends. ReplayDir only reads the directory: engine recovery
// and inspection tools walk a log with it alike, and Open measures its
// last segment with InspectSegment, as those tools do. The engine layers
// its own gate on top (appends never straddle a checkpoint position — see
// internal/engine). After Close, every method fails; the directory flock
// is released on Close and by the kernel on process death, so a crash
// never wedges its own recovery.
//
// # Failures
//
// A failed write is cut back to the last record boundary and the log goes
// on, as after a refused batch or a SkipTo that would regress. A failed
// fsync, segment switch or rollback latches (Log.Append) until the
// directory is reopened, which replays every append acknowledged durable
// and, after a crash only, at most the one whose fsync failed past them.
package wal
