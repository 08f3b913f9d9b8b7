package engine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
)

// Delta export: what crosses a partition boundary is the change, not the
// partition. A remote reader that keeps its own merged view (the cluster
// gateway) holds a cursor naming the exact engine state it has folded in
// and asks for everything applied since; the answer is the shards' journal
// suffixes — the very batches the engine's own views replay — or, when no
// journal connects the cursor to the present, the whole merged sketch.
// Either way it comes with the cursor of the state the reader then holds.
//
// A cursor is "<epoch>:<positions>". The epoch is boot.base.rot — the
// engine's boot draw, its recovery base's generation and its window
// rotation count — and changes exactly when state changes without a journal
// entry: a restart (processed counts start over), an ImportSketch, a
// rotation. The positions are the per-shard processed counts. Readers treat
// the whole string as opaque; any number of them may hold cursors, and
// serving one changes nothing here.

// baseSketch is one published recovery base. gen numbers the bases of one
// boot (each ImportSketch publishes the next), which is what lets a cursor
// name a base over the wire.
type baseSketch struct {
	sk  *core.VOS
	gen uint64
}

// generation is gen, with no base at all as generation 0.
func (b *baseSketch) generation() uint64 {
	if b == nil {
		return 0
	}
	return b.gen
}

// ErrBadCursor reports an ExportSince cursor that no engine ever issued.
var ErrBadCursor = errors.New("engine: malformed export cursor")

// Fallback reasons a Delta carries when a cursor was answered in full.
const (
	FallbackEpoch   = "epoch"   // the cursor is from another boot, base or rotation
	FallbackJournal = "journal" // a shard's journal no longer reaches back to the cursor
)

// Delta is ExportSince's answer: the state change since a cursor, or the
// whole state.
type Delta struct {
	// Cursor names the state the receiver holds once it has applied this
	// answer; it is what to send next time.
	Cursor string
	// Edges are the batches applied since the cursor that was sent, in
	// per-shard order, when Full is nil. Possibly none.
	Edges []stream.Edge
	// Full is the serialized merged sketch (core.VOS wire format), sent when
	// no cursor came or the one that came could not be served; Fallback then
	// says which of the two reasons above applied, and is empty otherwise.
	Full     []byte
	Fallback string
}

type cursor struct {
	boot, base, rot uint64
	at              []uint64
}

func (c cursor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%x.%d.%d:", c.boot, c.base, c.rot)
	for i, at := range c.at {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(at, 10))
	}
	return b.String()
}

// maxCursorShards bounds the positions a cursor may carry, far above any
// real shard count: a cursor is outside input.
const maxCursorShards = 1 << 12

func parseCursor(s string) (cursor, error) {
	bad := func() (cursor, error) { return cursor{}, fmt.Errorf("%w: %.64q", ErrBadCursor, s) }
	epoch, positions, ok := strings.Cut(s, ":")
	parts := strings.Split(epoch, ".")
	if !ok || len(parts) != 3 || strings.Count(positions, ",") >= maxCursorShards {
		return bad()
	}
	var c cursor
	var err [3]error
	c.boot, err[0] = strconv.ParseUint(parts[0], 16, 64)
	c.base, err[1] = strconv.ParseUint(parts[1], 10, 64)
	c.rot, err[2] = strconv.ParseUint(parts[2], 10, 64)
	if err[0] != nil || err[1] != nil || err[2] != nil {
		return bad()
	}
	for _, p := range strings.Split(positions, ",") {
		at, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return bad()
		}
		c.at = append(c.at, at)
	}
	return c, nil
}

// ExportSince answers a remote reader: with since a cursor from an earlier
// answer, the edges applied since then; with since empty, or a cursor no
// journal reaches, the full merged sketch. Like MarshalBinary it flushes
// first, so the answer covers every edge acknowledged before the call.
// ErrBadCursor for a since that is not a cursor at all.
func (e *Engine) ExportSince(since string) (Delta, error) {
	if e.closed.Load() {
		return Delta{}, ErrClosed
	}
	var have cursor
	if since != "" {
		var err error
		if have, err = parseCursor(since); err != nil {
			return Delta{}, err
		}
	}
	e.maybeAdvance()
	e.Flush()
	fallback := ""
	if since != "" {
		var d Delta
		if d, fallback = e.suffixSince(have); fallback == "" {
			return d, nil
		}
	}
	snap := e.acquire(e.exact)
	defer snap.Release()
	data, err := snap.Sk.MarshalBinary()
	if err != nil {
		return Delta{}, err
	}
	st := &snap.Stamp
	return Delta{Cursor: e.cursorAt(st.base, st.rot, st.at).String(), Full: data, Fallback: fallback}, nil
}

func (e *Engine) cursorAt(base *baseSketch, rot uint64, at []uint64) cursor {
	return cursor{boot: e.boot, base: base.generation(), rot: rot, at: at}
}

// suffixSince cuts every shard's journal at the present and returns what
// lies past c, or the reason it cannot.
func (e *Engine) suffixSince(c cursor) (Delta, string) {
	// As in a view refresh, the window read-lock keeps a rotation from
	// landing between the epoch check and the last shard's cut.
	if e.cfg.Window != nil {
		e.winMu.RLock()
		defer e.winMu.RUnlock()
	}
	now := e.cursorAt(e.base.Load(), e.winRot.Load(), make([]uint64, len(e.shards)))
	if c.boot != now.boot || c.base != now.base || c.rot != now.rot || len(c.at) != len(e.shards) {
		return Delta{}, FallbackEpoch
	}
	var edges []stream.Edge
	for i, s := range e.shards {
		cut, end, ok := s.suffix(c.at[i])
		if !ok {
			return Delta{}, FallbackJournal
		}
		for _, en := range cut {
			edges = append(edges, en.batch...)
		}
		now.at[i] = end
	}
	return Delta{Cursor: now.String(), Edges: edges}, ""
}
