package engine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/vossketch/vos/internal/resident"
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
// A cursor is "<epoch>:<positions>". The epoch is boot.gen.rot — the
// engine's boot draw, its import generation and its window rotation count —
// and changes exactly when state changes without a journal entry: a restart
// (processed counts start over), an ImportSketch, a rotation. The positions
// are the per-shard processed counts. Readers treat the whole string as
// opaque; any number of them may hold cursors, and serving one changes
// nothing here.

// ErrBadCursor reports an ExportSince cursor that no engine ever issued.
var ErrBadCursor = errors.New("engine: malformed export cursor")

// Fallback reasons a Delta carries when a cursor was answered in full.
const (
	FallbackEpoch   = "epoch"   // the cursor is from another boot, import generation or rotation
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

// cursor is a stamp on the wire: what a view carries, plus the boot draw
// that tells this life's processed counts from another's.
type cursor struct {
	boot uint64
	stamp
}

func (c cursor) String() string { return string(c.appendTo(nil)) }

// appendTo appends the cursor's text to b.
func (c cursor) appendTo(b []byte) []byte {
	b = strconv.AppendUint(b, c.boot, 16)
	b = strconv.AppendUint(append(b, '.'), c.gen, 10)
	b = strconv.AppendUint(append(b, '.'), c.rot, 10)
	b = append(b, ':')
	for i, at := range c.at {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, at, 10)
	}
	return b
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
	c.gen, err[1] = strconv.ParseUint(parts[1], 10, 64)
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
	snap := e.acquire()
	defer snap.Release()
	data, err := snap.Sk.MarshalBinary()
	if err != nil {
		return Delta{}, err
	}
	return Delta{Cursor: cursor{boot: e.boot, stamp: snap.Stamp}.String(), Full: data, Fallback: fallback}, nil
}

// suffixSince cuts every shard's journal at the present and returns what
// lies past c, or the reason it cannot. As in a view refresh, the state
// read-lock keeps a rotation or an import from landing between the epoch
// check and the last shard's cut.
func (e *Engine) suffixSince(c cursor) (Delta, string) {
	e.stateMu.RLock()
	defer e.stateMu.RUnlock()
	if c.boot != e.boot || len(c.at) != len(e.shards) {
		return Delta{}, FallbackEpoch
	}
	var edges []stream.Edge
	switch e.since(&c.stamp, func(batch []stream.Edge) { edges = append(edges, batch...) }) {
	case resident.Replayed:
		return Delta{Cursor: c.String(), Edges: edges}, ""
	case resident.Overflow:
		return Delta{}, FallbackJournal
	default:
		return Delta{}, FallbackEpoch
	}
}
