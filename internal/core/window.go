package core

// Sliding windows. VOS state is a pure XOR of its edge stream, so a
// sliding window falls out structurally: the live view is the XOR-merge of
// B time buckets, and the oldest bucket retires by being XOR-ed back out
// (Rotate) — O(sketch) work per rotation, no per-edge expiry tracking, no
// timers in the hot path. Each edge is one plain VOS write on the merged
// view: the current bucket is not stored but is merged ⊕ base, base being
// the merged view as the last rotation left it (arrays XOR, counters
// subtract; linearity makes it exact). The merged view is an ordinary *VOS,
// so the whole materialized read path works on it unchanged.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"github.com/vossketch/vos/internal/bitset"
)

// Window is a sliding-window VOS: the live merged view covering the last B
// bucket intervals (B−1 closed buckets and the current, still-filling one),
// the closed buckets' sub-sketches, and base, their XOR-merge — B+1 arrays,
// of which a rotation rewrites three in one pass (Rotate).
// Like VOS it is not safe for concurrent mutation — the engine wraps
// per-shard windows in its own locking; read-only access to Merged follows
// the VOS rules.
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

	closed []*VOS // ring of the B−1 closed buckets; oldest indexes the oldest
	oldest int
	merged *VOS // XOR-merge of all live buckets; pointer is stable
	base   *VOS // merged as the last rotation left it: the XOR-merge of closed
}

// accumulator returns an empty sketch for state the window keeps but never
// queries (closed buckets, base, a derived current bucket): without the
// recovered-sketch cache, which would be dead weight B times over.
func accumulator(cfg Config) *VOS {
	v := MustNew(cfg)
	v.SetRecoveredCacheCapacity(-1)
	return v
}

// NewWindow creates an empty window of buckets sub-sketches of duration d
// each, with the current bucket covering the instant now (its end is
// rounded up to the next multiple of d since the Unix epoch). buckets must
// be at least 1 — a single bucket is a tumbling window that forgets
// everything on each rotation — and d must be positive.
func NewWindow(cfg Config, buckets int, d time.Duration, now time.Time) (*Window, error) {
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
		closed:   make([]*VOS, buckets-1),
		merged:   merged,
		base:     accumulator(cfg),
	}
	for i := range w.closed {
		w.closed[i] = accumulator(cfg)
	}
	return w, nil
}

// Config returns the per-bucket sketch configuration.
func (w *Window) Config() Config { return w.cfg }

// Buckets returns B, the ring size.
func (w *Window) Buckets() int { return len(w.closed) + 1 }

// BucketDuration returns the time span of one bucket.
func (w *Window) BucketDuration() time.Duration { return time.Duration(w.bucketNS) }

// End returns the exclusive end of the current bucket — the next rotation
// boundary.
func (w *Window) End() time.Time { return time.Unix(0, w.endNS) }

// Merged returns the live window sketch: the XOR-merge of every live
// bucket, maintained incrementally. It is an ordinary *VOS — Query, TopK,
// caches, and serialization all apply — and the pointer is stable for the
// window's lifetime (rotation mutates it in place). Its Process and
// ProcessBatch are the window's own writes, into the current bucket, so the
// engine's shard workers apply batches straight to it; any other mutation
// must go through the window (MergeBucket), or base goes stale.
func (w *Window) Merged() *VOS { return w.merged }

// Bucket returns the k-th oldest live bucket, k ∈ [0, B); k = B−1, the
// current bucket, is not stored, so each call derives a fresh copy of it in
// O(sketch). Read-only: the engine's checkpoint path merges bucket state
// across shards through this accessor.
func (w *Window) Bucket(k int) *VOS {
	if k == len(w.closed) {
		cur := accumulator(w.cfg)
		w.derive(cur)
		return cur
	}
	return w.closed[(w.oldest+k)%len(w.closed)]
}

// derive overwrites dst with the current bucket, merged ⊕ base.
func (w *Window) derive(dst *VOS) {
	dst.Reset()
	dst.arr.Xor(w.merged.arr)
	dst.arr.Xor(w.base.arr)
	w.deriveCounters(&dst.card)
}

// deriveCounters fills the empty table dst with the current bucket's
// counters, merged's minus base's, sized once for merged's users as a fold
// into an empty sketch is.
func (w *Window) deriveCounters(dst *counters) {
	dst.reserve(w.merged.card.live)
	for u, c := range w.merged.card.all {
		dst.bump(u, c)
	}
	for u, c := range w.base.card.all {
		dst.bump(u, -c)
	}
}

// MergeBucket folds src into the k-th oldest bucket and the merged view (and
// base, for a closed bucket) — the cross-shard composition step: bucket k of
// a global window is the exact merge of bucket k of every per-shard window,
// because VOS merging is exact for any partition of the stream.
func (w *Window) MergeBucket(k int, src *VOS) error {
	if err := w.merged.Merge(src); err != nil {
		return err
	}
	if k < len(w.closed) {
		w.base.fold(src)
		w.Bucket(k).fold(src)
	}
	return nil
}

// Rotate retires the oldest bucket and opens a fresh current one. With m, b
// and o the merged, base and retired arrays, one pass writes m ⊕ o (the
// retired bucket XOR-ed out) to merged and base and m ⊕ b, the closing
// bucket, to o's storage (bitset.Slide). The counters follow: one walk of
// the retired bucket's entries takes them out of merged and base, the
// closing bucket's are derived from the two into its own cleared table, and
// base's table becomes a copy of merged's. The cost is independent of how
// many edges the buckets absorbed, and nothing is allocated once the tables
// have grown. The window's end advances by one bucket duration.
func (w *Window) Rotate() {
	if len(w.closed) == 0 {
		w.merged.Reset() // B = 1: the current bucket is the whole window
	} else {
		m, b, old := w.merged, w.base, w.closed[w.oldest]
		m.version++ // invalidates every cached recovered sketch
		b.version++
		old.version++
		bitset.Slide(m.arr, b.arr, old.arr)
		for u, c := range old.card.all {
			m.card.bump(u, -c)
			b.card.bump(u, -c)
		}
		old.card.clear()
		w.deriveCounters(&old.card)
		b.card.copyFrom(&m.card) // base = merged
		w.oldest = (w.oldest + 1) % len(w.closed)
	}
	w.endNS += w.bucketNS
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
	if max := int64(w.Buckets()); rot > max {
		rot = max
	}
	for i := int64(0); i < rot; i++ {
		w.Rotate()
	}
	if skipped := steps - rot; skipped > 0 {
		// Every bucket is already empty; just move the boundaries.
		w.endNS += skipped * w.bucketNS
	}
	return int(steps)
}

// Stats summarises the live window view, with the window metadata fields
// set and MemoryBytes covering the whole ring (closed buckets, base and
// merged view).
func (w *Window) Stats() Stats {
	st := w.merged.Stats()
	st.MemoryBytes += w.base.Stats().MemoryBytes
	for _, b := range w.closed {
		st.MemoryBytes += b.Stats().MemoryBytes
	}
	st.WindowSeconds = (time.Duration(w.bucketNS) * time.Duration(w.Buckets())).Seconds()
	st.WindowBuckets = w.Buckets()
	return st
}

// windowMagic tags a serialized Window. Distinct from vosMagic so a loader
// can sniff which state kind a checkpoint holds.
var windowMagic = [4]byte{'V', 'W', 'N', '1'}

// MarshalBinary encodes the full window state: bucket duration, current
// bucket end, and every bucket oldest-first, the current one derived. The
// merged view and base are not stored — they are XORs of the buckets and
// are rebuilt on load, so the serialized form cannot desynchronise from its
// own invariant. Restore with UnmarshalWindow.
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
	writeU64(uint64(w.Buckets()))
	for k := 0; k < w.Buckets(); k++ {
		bb, err := w.Bucket(k).MarshalBinary()
		if err != nil {
			return nil, err
		}
		writeU64(uint64(len(bb)))
		buf.Write(bb)
	}
	return buf.Bytes(), nil
}

// isWindowData reports whether data starts with the serialized-Window
// magic — how UnmarshalState tells a bucket ring from a plain sketch.
func isWindowData(data []byte) bool {
	return len(data) >= len(windowMagic) && bytes.Equal(data[:len(windowMagic)], windowMagic[:])
}

// UnmarshalState decodes a persisted engine state, the one place its kind is
// decided: a bucket ring (UnmarshalWindow) when data carries the window magic,
// else a plain sketch (UnmarshalVOS). On success one of flat and ring is set.
func UnmarshalState(data []byte) (flat *VOS, ring *Window, err error) {
	if isWindowData(data) {
		ring, err = UnmarshalWindow(data)
		return nil, ring, err
	}
	flat, err = UnmarshalVOS(data)
	return flat, nil, err
}

// UnmarshalWindow decodes a window produced by Window.MarshalBinary and
// rebuilds base and the merged view from the buckets.
func UnmarshalWindow(data []byte) (*Window, error) {
	if !isWindowData(data) {
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
	w := &Window{
		cfg:      buckets[0].Config(),
		bucketNS: int64(bucketNS),
		endNS:    int64(endNS),
		closed:   buckets[:nb-1], // serialized oldest-first, the current bucket last
		merged:   buckets[nb-1],
		base:     accumulator(buckets[0].Config()),
	}
	for _, b := range w.closed {
		w.base.fold(b)
	}
	w.merged.fold(w.base)
	w.merged.SetRecoveredCacheCapacity(0) // the one sketch that is queried
	return w, nil
}
