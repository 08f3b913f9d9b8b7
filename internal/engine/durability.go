package engine

// Durability: the engine's crash-recovery layer, built on internal/wal.
//
// When Config.Durability names a directory, every batch accepted by
// Process/ProcessBatch is appended to a write-ahead log *before* it is
// routed to the shards, under the configured sync policy. Checkpoint
// atomically persists the merged sketch together with the WAL position it
// covers and then deletes fully covered WAL segments; Open loads the
// newest valid checkpoint and replays only the WAL suffix, so restart cost
// is proportional to the edges since the last checkpoint, not the whole
// graph stream. The checkpoint is decoded by core.UnmarshalState and the
// suffix walked by wal.ReplayDir — the decoder and walk vosinspect -wal
// dumps a directory with, so the two readers cannot drift apart.
//
// Consistency model. Producers hold walMu.RLock across "append to WAL,
// then route to shards", and Checkpoint holds walMu.Lock while it captures
// the WAL position and flushes the shards. Appends therefore never
// straddle a checkpoint: a checkpoint at position p contains exactly the
// edges of WAL records [0, p), and replaying the suffix [p, ...) after
// loading it reconstructs the engine's merged state bit-identically. This
// matters because VOS updates are XOR toggles — replaying an edge twice
// (or dropping one) would corrupt parity, so exact positioning is the
// whole game.
//
// The recovered checkpoint is folded into the shards (fold): parity state is
// linear, so a merged sketch splits into per-shard parts whose merge is the
// sketch again (core.VOS.Partition) — the array to shard 0, each user's
// counter to the shard that owns the user. After Open the shards hold all
// there is, whatever shard count wrote the checkpoint, and every read path
// is the one a memory-only engine has.

import (
	"errors"
	"fmt"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/internal/wal"
)

// ErrNoDurability is returned by Checkpoint on an engine without a
// durability directory, and by Open when the config names none.
var ErrNoDurability = errors.New("engine: no durability directory configured")

// DurabilityConfig enables the write-ahead log and checkpointing.
type DurabilityConfig struct {
	// Dir is the log directory (WAL segments + checkpoints). Created if
	// missing. Required.
	Dir string
	// Sync is the WAL fsync policy: wal.SyncEveryBatch (default, an
	// acknowledged batch is durable), wal.SyncEveryN, or wal.SyncOff.
	Sync wal.SyncPolicy
	// SyncEveryN is the edge interval between fsyncs under wal.SyncEveryN.
	// Default: 4096.
	SyncEveryN int
	// SegmentBytes is the WAL segment rotation threshold. Default: 64 MiB.
	SegmentBytes int64
	// DisableLock skips the advisory flock that makes a second engine on
	// the same directory fail fast instead of corrupting the WAL. Only
	// for filesystems without working flock, or tests that simulate a
	// crash in-process (where the abandoned engine cannot release the
	// lock a real process death would).
	DisableLock bool
}

// walOptions converts the engine-level knobs to wal.Options.
func (d *DurabilityConfig) walOptions() wal.Options {
	return wal.Options{Sync: d.Sync, SyncEveryN: d.SyncEveryN, SegmentBytes: d.SegmentBytes, DisableLock: d.DisableLock}
}

// Open starts a durable engine from cfg.Durability.Dir: it loads the
// newest valid checkpoint (if any), opens the WAL (truncating a torn tail
// left by a crash), replays the WAL suffix past the checkpoint, and only
// then begins accepting new edges. A directory that has never held an
// engine starts empty — Open is also how a durable engine starts fresh.
func Open(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	d := cfg.Durability
	if d == nil || d.Dir == "" {
		return nil, ErrNoDurability
	}
	ckptPos, skBytes, found, err := wal.LatestCheckpoint(d.Dir)
	if err != nil {
		return nil, err
	}
	// A checkpoint is either a plain merged sketch (unwindowed engines) or
	// a serialized bucket ring (windowed engines, which must keep rotating
	// after recovery — a flat sketch carries no bucket attribution to retire).
	// The two modes must not open each other's state: silently flattening
	// a window would stop edges from ever expiring, and silently windowing
	// a flat sketch would expire edges that were never bucketed.
	var flat *core.VOS
	var ring *core.Window
	if found {
		if flat, ring, err = core.UnmarshalState(skBytes); err != nil {
			return nil, fmt.Errorf("engine: load checkpoint: %w", err)
		}
		var got core.Config
		switch {
		case ring == nil && cfg.Window != nil:
			return nil, fmt.Errorf("engine: directory holds an unwindowed checkpoint but Config.Window is set")
		case ring == nil:
			got = flat.Config()
		case cfg.Window == nil:
			return nil, fmt.Errorf("engine: directory holds a windowed checkpoint but Config.Window is nil")
		case ring.Buckets() != cfg.Window.Buckets || ring.BucketDuration() != cfg.Window.BucketDuration:
			return nil, fmt.Errorf("engine: checkpoint window (B=%d, bucket=%v) does not match engine config (B=%d, bucket=%v)",
				ring.Buckets(), ring.BucketDuration(), cfg.Window.Buckets, cfg.Window.BucketDuration)
		default:
			got = ring.Config()
		}
		if err := foldable("checkpoint", got, cfg.Sketch); err != nil {
			return nil, err
		}
	}
	log, err := wal.Open(d.Dir, d.walOptions())
	if err != nil {
		return nil, err
	}
	// Under SyncOff a crash can lose WAL records the checkpoint already
	// covers. The content is safe inside the checkpoint; only the position
	// must not regress, or the next checkpoint would mislabel itself.
	if log.Pos() < ckptPos {
		if err := log.SkipTo(ckptPos); err != nil {
			log.Close()
			return nil, err
		}
	}
	e, err := newEngine(cfg, flat, ring)
	if err != nil {
		log.Close()
		return nil, err
	}
	if ring != nil {
		// Rotation events are not WAL-logged, so the exact bucket each
		// post-checkpoint edge landed in is unrecoverable. Catch the rings
		// up to the present BEFORE replay, so the replayed suffix lands in
		// the bucket covering now: edges are then attributed no older than
		// they really are and can only retire LATE (by at most the
		// checkpoint-to-crash gap), never early — recovery must not
		// silently drop edges that are still inside the window. With a
		// clock behind the checkpoint boundary (tests pin one) this is a
		// no-op and attribution is exact.
		e.AdvanceWindowTo(e.now())
	}
	// Replay the suffix through the routing path directly — the log is not
	// attached yet, so replayed edges are not re-appended.
	err = wal.ReplayDir(d.Dir, ckptPos, func(_ uint64, edges []stream.Edge) error {
		e.route(edges, nil)
		return nil
	})
	if err != nil {
		e.Close()
		log.Close()
		return nil, fmt.Errorf("engine: replay: %w", err)
	}
	e.Flush()
	e.log = log
	return e, nil
}

// foldable reports whether a sketch that arrived from outside the workers —
// what names it — may be folded into an engine of config want: merged across
// hash families or array shapes, XOR state desynchronizes silently.
func foldable(what string, got, want core.Config) error {
	if got.Family != want.Family {
		return fmt.Errorf("%w: %s uses the %v hash family, engine is configured for %v",
			core.ErrFamilyMismatch, what, got.Family, want.Family)
	}
	if got != want {
		return fmt.Errorf("engine: %s sketch config %+v does not match engine config %+v", what, got, want)
	}
	return nil
}

// fold merges sk, a sketch foldable has passed, into the shards: part i of
// core.VOS.Partition under the engine's own routing into shard i — into
// bucket k of its ring, on a windowed engine. The merged state gains exactly
// sk, and each user's counter lands in the shard that owns the user. No
// journal records it: callers that fold into a serving engine hold stateMu
// and move the epoch (ImportSketch).
func (e *Engine) fold(sk *core.VOS, k int) {
	for i, part := range sk.Partition(len(e.shards), e.routeSeed) {
		s := e.shards[i]
		s.skMu.Lock()
		var err error
		if s.win != nil {
			err = s.win.MergeBucket(k, part)
		} else {
			err = s.sk.Merge(part)
		}
		s.skMu.Unlock()
		if err != nil {
			panic(fmt.Sprintf("engine: fold failed: %v", err)) // impossible: foldable
		}
	}
}

// Checkpoint atomically persists the engine's merged sketch together with
// the WAL position it covers, then deletes WAL segments every retained
// checkpoint has covered (the newest two checkpoint files are kept, so
// the WAL suffix of the older one survives for fallback). It blocks
// producers for the duration (they queue on the WAL gate), so after it
// returns the checkpoint covers every edge acknowledged before the call.
// It returns the covered position.
func (e *Engine) Checkpoint() (uint64, error) {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	if e.closed.Load() {
		// Close wrote the final checkpoint and is closing the log.
		return 0, ErrClosed
	}
	if e.log == nil {
		return 0, ErrNoDurability
	}
	return e.checkpointLocked()
}

// checkpointLocked is Checkpoint's body. Callers hold walMu exclusively
// (or, from Close, have already stopped all producers and workers).
func (e *Engine) checkpointLocked() (uint64, error) {
	pos := e.log.Pos()
	// Everything the checkpoint will claim as covered must itself be
	// durable first, or a crash after segment truncation could lose edges.
	if err := e.log.Sync(); err != nil {
		return 0, err
	}
	e.Flush()
	var data []byte
	if e.cfg.Window != nil {
		// Persist the bucket ring, not the flattened view: recovery must
		// keep retiring buckets on schedule, which needs per-bucket state.
		w, err := e.windowSnapshot()
		if err != nil {
			return 0, err
		}
		data, err = w.MarshalBinary()
		if err != nil {
			return 0, err
		}
	} else {
		snap := e.acquire()
		var err error
		data, err = snap.Sk.MarshalBinary()
		snap.Release()
		if err != nil {
			return 0, err
		}
	}
	if err := wal.WriteCheckpoint(e.cfg.Durability.Dir, pos, data); err != nil {
		return 0, err
	}
	// Rotate first so the segment that was the append target is also
	// reclaimable, then truncate back to the OLDEST retained checkpoint,
	// not just the new one: recovery falls back to the previous checkpoint
	// file if the newest proves unreadable, and that fallback needs its
	// covering WAL suffix to still exist (replay verifies coverage and
	// would otherwise refuse).
	keep := pos
	if all, err := wal.ListCheckpoints(e.cfg.Durability.Dir); err != nil {
		return 0, err
	} else if len(all) > 0 && all[0] < keep {
		keep = all[0]
	}
	if err := e.log.Rotate(); err != nil {
		return 0, err
	}
	if err := e.log.TruncateBefore(keep); err != nil {
		return 0, err
	}
	return pos, nil
}
