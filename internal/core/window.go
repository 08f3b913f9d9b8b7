package core

// Sliding windows. VOS state is a pure XOR of its edge stream, so a
// sliding window falls out structurally: keep B time-bucketed sub-sketches
// in a ring, land every edge in the current bucket AND in a running
// XOR-merge of all live buckets, and retire the oldest bucket by re-XORing
// it out of the merge (Unmerge) — one O(sketch) array pass per rotation,
// no per-edge expiry tracking, no timers in the hot path. The merged view
// is an ordinary *VOS, so the whole materialized read path (Query, TopK,
// position and recovered-sketch caches) works on it unchanged.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"github.com/vossketch/vos/internal/stream"
)

// Window is a sliding-window VOS: a ring of B bucket sub-sketches plus the
// live merged view covering the last B bucket intervals (the oldest B−1
// full buckets and the current, still-filling one). Like VOS it is not
// safe for concurrent mutation — the engine wraps per-shard windows in its
// own locking; read-only access to Merged follows the VOS rules.
//
// Time model: the window owns a bucket duration and the exclusive end
// instant of the current bucket, epoch-aligned so independently created
// windows with the same duration rotate on the same boundaries. Rotation
// is deterministic and explicit — Rotate advances one bucket, AdvanceTo
// rotates however many boundaries a timestamp has crossed — so callers
// (and tests) control the clock; nothing here reads time.Now.
type Window struct {
	cfg      Config
	bucketNS int64
	endNS    int64 // exclusive end of the current bucket, unix nanoseconds

	buckets []*VOS // ring; cur indexes the bucket accepting writes
	cur     int
	merged  *VOS // XOR-merge of all live buckets; pointer is stable

	rotations uint64
}

// NewWindow creates an empty window of buckets sub-sketches of duration d
// each, with the current bucket covering the instant now (its end is
// rounded up to the next multiple of d since the Unix epoch). buckets must
// be at least 1 — a single bucket is a tumbling window that forgets
// everything on each rotation — and d must be positive.
func NewWindow(cfg Config, buckets int, d time.Duration, now time.Time) (*Window, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("core: window needs at least 1 bucket, got %d", buckets)
	}
	if d <= 0 {
		return nil, fmt.Errorf("core: bucket duration must be positive, got %v", d)
	}
	ns := now.UnixNano()
	end := (ns/d.Nanoseconds())*d.Nanoseconds() + d.Nanoseconds()
	return NewWindowAt(cfg, buckets, d, time.Unix(0, end))
}

// NewWindowAt is NewWindow with an explicit, verbatim current-bucket end
// instant — the constructor recovery uses so a window rebuilt from a
// checkpoint keeps exactly the boundaries it was persisted with.
func NewWindowAt(cfg Config, buckets int, d time.Duration, end time.Time) (*Window, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("core: window needs at least 1 bucket, got %d", buckets)
	}
	if d <= 0 {
		return nil, fmt.Errorf("core: bucket duration must be positive, got %v", d)
	}
	merged, err := New(cfg)
	if err != nil {
		return nil, err
	}
	w := &Window{
		cfg:      cfg,
		bucketNS: d.Nanoseconds(),
		endNS:    end.UnixNano(),
		buckets:  make([]*VOS, buckets),
		merged:   merged,
	}
	for i := range w.buckets {
		b := MustNew(cfg)
		// Buckets are write-only accumulators — they are never queried, so
		// the default recovered-sketch cache would be dead weight B times
		// over. The merged view keeps its caches.
		b.SetRecoveredCacheCapacity(-1)
		w.buckets[i] = b
	}
	return w, nil
}

// Config returns the per-bucket sketch configuration.
func (w *Window) Config() Config { return w.cfg }

// Buckets returns B, the ring size.
func (w *Window) Buckets() int { return len(w.buckets) }

// BucketDuration returns the time span of one bucket.
func (w *Window) BucketDuration() time.Duration { return time.Duration(w.bucketNS) }

// Start returns the inclusive start of the live window: the instant the
// oldest live bucket began, End − B·BucketDuration.
func (w *Window) Start() time.Time {
	return time.Unix(0, w.endNS-int64(len(w.buckets))*w.bucketNS)
}

// End returns the exclusive end of the current bucket — the next rotation
// boundary.
func (w *Window) End() time.Time { return time.Unix(0, w.endNS) }

// Rotations returns how many buckets have been retired since creation.
func (w *Window) Rotations() uint64 { return w.rotations }

// Merged returns the live window sketch: the XOR-merge of every live
// bucket, maintained incrementally. It is an ordinary *VOS — Query, TopK,
// caches, and serialization all apply — and the pointer is stable for the
// window's lifetime (rotation mutates it in place). Treat it as read-only:
// writes must go through Process so bucket and merge stay in lockstep.
func (w *Window) Merged() *VOS { return w.merged }

// Bucket returns the k-th oldest live bucket, k ∈ [0, B); k = B−1 is the
// current bucket. Read-only: the engine's checkpoint path merges bucket
// state across shards through this accessor.
func (w *Window) Bucket(k int) *VOS {
	return w.buckets[(w.cur+1+k)%len(w.buckets)]
}

// MergeBucket folds src into the k-th oldest bucket and into the merged
// view — the cross-shard composition step: bucket k of a global window is
// the exact merge of bucket k of every per-shard window, because VOS
// merging is exact for any partition of the stream.
func (w *Window) MergeBucket(k int, src *VOS) error {
	if err := w.Bucket(k).Merge(src); err != nil {
		return err
	}
	return w.merged.Merge(src)
}

// Process folds one stream element into the current bucket and the merged
// view — still O(1) per edge: the hashes are computed once and the single
// bit flip lands in both arrays.
func (w *Window) Process(e stream.Edge) {
	m, b := w.merged, w.buckets[w.cur]
	j := m.slot(e.Item)
	p := m.position(e.User, j)
	d := opDelta(e.Op)
	m.version++ // invalidates cached recovered sketches on the live view
	m.arr.Flip(p)
	m.card.bump(e.User, d)
	b.version++
	b.arr.Flip(p)
	b.card.bump(e.User, d)
}

// ProcessBatch folds a slice of stream elements into the current bucket
// and the merged view — the same state transition as calling Process per
// element, byte for byte in both — by the block step of VOS.ProcessBatch:
// a block's positions are computed once, toggled back to back in the merged
// array and then in the bucket's,
// and the two counter tables adjusted last, a block each (the tables differ
// in size and content, so each computes its own home slots). One write
// version per sketch covers the whole slice; the slice is only read, and not
// kept.
func (w *Window) ProcessBatch(edges []stream.Edge) {
	if len(edges) == 0 {
		return
	}
	m, b := w.merged, w.buckets[w.cur]
	m.version++ // one write event: invalidates cached recovered sketches
	b.version++
	var buf [blockLen]uint64
	for len(edges) > 0 {
		blk := edges[:min(len(edges), blockLen)]
		edges = edges[len(blk):]
		pos := buf[:len(blk)]
		m.togglePositions(pos, blk)
		m.arr.FlipAll(pos)
		b.arr.FlipAll(pos)
		m.card.bumpAll(blk)
		b.card.bumpAll(blk)
	}
}

// Rotate retires the oldest bucket and opens a fresh current one: the
// retired bucket is XOR-ed back out of the merged view (Unmerge — exactly
// one O(m/64) array pass plus its counter entries, independent of how many
// edges the bucket absorbed), reset in place, and reused as the new
// current bucket. The window's end advances by one bucket duration.
func (w *Window) Rotate() {
	w.cur = (w.cur + 1) % len(w.buckets)
	old := w.buckets[w.cur] // the oldest bucket; becomes the new current
	if err := w.merged.Unmerge(old); err != nil {
		// Impossible: every bucket shares w.cfg by construction.
		panic(fmt.Sprintf("core: window unmerge failed: %v", err))
	}
	old.Reset()
	w.endNS += w.bucketNS
	w.rotations++
}

// AdvanceTo rotates once per bucket boundary crossed up to t and returns
// the number of boundaries crossed. Instants before the current bucket's
// end — including clock-skewed timestamps that predate the whole window —
// are a no-op: the window never moves backwards, and late edges simply
// land in the current bucket. A gap longer than the whole window performs
// at most B physical rotations (after B the ring is empty; the remaining
// boundaries only move the clock), so a quiet stream resumes in O(B·sketch)
// no matter how long it slept.
func (w *Window) AdvanceTo(t time.Time) int {
	ns := t.UnixNano()
	if ns < w.endNS {
		return 0
	}
	steps := (ns-w.endNS)/w.bucketNS + 1
	rot := steps
	if max := int64(len(w.buckets)); rot > max {
		rot = max
	}
	for i := int64(0); i < rot; i++ {
		w.Rotate()
	}
	if skipped := steps - rot; skipped > 0 {
		// Every bucket is already empty; just move the boundaries.
		w.endNS += skipped * w.bucketNS
		w.rotations += uint64(skipped)
	}
	return int(steps)
}

// Query estimates the similarity of users u and v over the live window.
func (w *Window) Query(u, v stream.User) Estimate { return w.merged.Query(u, v) }

// Cardinality returns n_u over the live window.
func (w *Window) Cardinality(u stream.User) int64 { return w.merged.Cardinality(u) }

// Stats summarises the live window view, with the window metadata fields
// set and MemoryBytes covering the whole ring (B buckets + merged view).
func (w *Window) Stats() Stats {
	st := w.merged.Stats()
	for _, b := range w.buckets {
		st.MemoryBytes += b.Stats().MemoryBytes
	}
	st.WindowSeconds = (time.Duration(w.bucketNS) * time.Duration(len(w.buckets))).Seconds()
	st.WindowBuckets = len(w.buckets)
	return st
}

// windowMagic tags a serialized Window. Distinct from vosMagic so a loader
// can sniff which state kind a checkpoint holds.
var windowMagic = [4]byte{'V', 'W', 'N', '1'}

// MarshalBinary encodes the full window state: bucket duration, current
// bucket end, and every bucket oldest-first. The merged view is not
// stored — it is the XOR of the buckets and is rebuilt on load, so the
// serialized form cannot desynchronise from its own invariant. Restore
// with UnmarshalWindow.
func (w *Window) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(windowMagic[:])
	var scratch [8]byte
	writeU64 := func(x uint64) {
		binary.LittleEndian.PutUint64(scratch[:], x)
		buf.Write(scratch[:])
	}
	writeU64(uint64(w.bucketNS))
	writeU64(uint64(w.endNS))
	writeU64(uint64(len(w.buckets)))
	for k := 0; k < len(w.buckets); k++ {
		bb, err := w.Bucket(k).MarshalBinary()
		if err != nil {
			return nil, err
		}
		writeU64(uint64(len(bb)))
		buf.Write(bb)
	}
	return buf.Bytes(), nil
}

// IsWindowData reports whether data starts with the serialized-Window
// magic — how recovery distinguishes a windowed checkpoint from a plain
// sketch checkpoint.
func IsWindowData(data []byte) bool {
	return len(data) >= len(windowMagic) && bytes.Equal(data[:len(windowMagic)], windowMagic[:])
}

// UnmarshalWindow decodes a window produced by Window.MarshalBinary and
// rebuilds the merged view from the buckets.
func UnmarshalWindow(data []byte) (*Window, error) {
	if !IsWindowData(data) {
		return nil, fmt.Errorf("%w: bad window magic", ErrCorrupt)
	}
	off := len(windowMagic)
	readU64 := func() (uint64, error) {
		if off+8 > len(data) {
			return 0, fmt.Errorf("%w: truncated window at offset %d", ErrCorrupt, off)
		}
		x := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return x, nil
	}
	bucketNS, err := readU64()
	if err != nil {
		return nil, err
	}
	endNS, err := readU64()
	if err != nil {
		return nil, err
	}
	nb, err := readU64()
	if err != nil {
		return nil, err
	}
	if bucketNS == 0 || bucketNS > uint64(1<<62) {
		return nil, fmt.Errorf("%w: implausible bucket duration %d ns", ErrCorrupt, bucketNS)
	}
	// Each bucket carries at least a sketch header, so B is bounded by the
	// payload size; check before allocating anything.
	if nb == 0 || nb > uint64(len(data))/8+1 {
		return nil, fmt.Errorf("%w: implausible bucket count %d", ErrCorrupt, nb)
	}
	// Decode every bucket BEFORE building the ring: each bucket's own
	// decoder bounds its array by its slice (UnmarshalVOS's hostile-header
	// guard), so total allocation stays proportional to len(data). A
	// hostile header claiming a huge nb alongside one large valid bucket
	// must fail on the missing payload, not pre-allocate nb empty
	// full-size sketches first.
	buckets := make([]*VOS, 0, int(nb))
	for k := uint64(0); k < nb; k++ {
		blen, err := readU64()
		if err != nil {
			return nil, err
		}
		if uint64(len(data)-off) < blen {
			return nil, fmt.Errorf("%w: bucket %d payload truncated", ErrCorrupt, k)
		}
		b, err := UnmarshalVOS(data[off : off+int(blen)])
		if err != nil {
			return nil, fmt.Errorf("%w: bucket %d: %v", ErrCorrupt, k, err)
		}
		if k > 0 && b.Config() != buckets[0].Config() {
			return nil, fmt.Errorf("%w: bucket %d config %+v does not match bucket 0 config %+v",
				ErrCorrupt, k, b.Config(), buckets[0].Config())
		}
		b.SetRecoveredCacheCapacity(-1)
		buckets = append(buckets, b)
		off += int(blen)
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after window", ErrCorrupt, len(data)-off)
	}
	merged, err := New(buckets[0].Config())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	w := &Window{
		cfg:      buckets[0].Config(),
		bucketNS: int64(bucketNS),
		endNS:    int64(endNS),
		buckets:  buckets, // serialized oldest-first; cur = newest = last
		cur:      len(buckets) - 1,
		merged:   merged,
	}
	for _, b := range buckets {
		if err := merged.Merge(b); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return w, nil
}
