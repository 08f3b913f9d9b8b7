package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/resident"
)

// The gateway's merged query snapshot.
//
// Every merged read (pair similarity, top-K, stats, export) queries the
// XOR-merge of all backends — the cluster-wide sketch a single engine would
// hold — because the estimator's β and collision-noise terms are properties
// of the GLOBAL array: per-node answers cannot be combined after the fact,
// but per-node STATE can, exactly. And state is linear, so the merge is
// kept the way the engine keeps its own (internal/resident): a resident
// merged view brought forward slot by slot by folding in what each backend
// applied since the view's cursor for it.
//
// Mostly that is what the gateway forwarded: each forward is acknowledged with
// its span (vos.SketchSpan), and a slot whose log of forwarded groups chains
// from the view's cursor to the log's end is folded from it with no backend
// asked. Any other slot asks for its journal suffix (GET
// /v1/cluster/sketch?since=): its chain has a gap (a write this gateway did
// not make, a dropped entry) or a mark (a forward that failed or came back
// without a span, an Ingest that did not reach it). Folds need exact cursor
// matches, so nothing is folded twice or past what a round trip covered.
//
// A fresh view — full exports from every backend, merged from zero — is the
// fallback, counted by cause in SnapshotStats: the first refresh, a cursor
// older than a backend's bounded journal, a backend whose epoch changed (it
// restarted, imported a handed-off shard, or rotated its window), a new ring
// version, a published view held by a long read with no spare free, and a
// backend that does not offer the delta export (a vosd that predates it, or
// a service wrapped in a decorator that hides it), which costs a full
// gather on every refresh — never wrong, only slow.

// gatherStamp is the exact cluster state a view equals.
type gatherStamp struct {
	// seq is the attempted-ingest count and ver the ring version read
	// BEFORE the gather that made the view current: the view is served for
	// as long as both still stand, with no backend asked.
	seq, ver uint64
	// cursors[i] is what the backend in ring slot i said names the state of
	// it this view holds; empty for a backend that gave none. next[i] counts
	// the entries of slot i's log folded in or logged before the last ask.
	cursors []string
	next    []uint64
}

type gatherView = resident.View[gatherStamp]

// errNoBackends reports a gather that reached zero nodes.
var errNoBackends = fmt.Errorf("%w: no cluster backend reachable", vos.ErrQueryUnavailable)

// slotLogSize bounds a slot log's edges plus entries; a view further behind
// than the log reaches asks its backend, as it would without the log.
const slotLogSize = 1 << 14

// slotLog is one ring slot's record of what the gateway forwarded to it,
// oldest first. Entries are numbered from zero for the gateway's life.
type slotLog struct {
	mu      sync.Mutex
	base    uint64 // the number of entries[0]
	entries []logEntry
	size    int    // the edges in entries, plus one an entry
	newest  uint64 // the accounting (gatherStamp.next) of the published view
}

// logEntry is an acknowledged group (a copy, never written) with its span, or
// a mark (no span): a landing the gateway does not know.
type logEntry struct {
	edges []vos.Edge
	span  vos.SketchSpan
}

// add logs a group and its span (none: a mark), dropping the oldest entries
// past the bound. With the published view behind what the log still holds,
// the spare is too and each asks its backend next anyway, so a mark does as
// well as a copy.
func (l *slotLog) add(edges []vos.Edge, span vos.SketchSpan) {
	l.mu.Lock()
	defer l.mu.Unlock()
	en := logEntry{}
	if span.After != "" && l.newest >= l.base {
		en = logEntry{edges: slices.Clone(edges), span: span}
	}
	l.entries = append(l.entries, en)
	for l.size += 1 + len(en.edges); l.size > slotLogSize && len(l.entries) > 1; {
		l.dropFront(1)
	}
}

// end is the number the next entry will get.
func (l *slotLog) end() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + uint64(len(l.entries))
}

// publish records the accounting of a view about to be published and drops
// the entries both it and the view published before it have accounted for:
// a spare older than that asks its backends, as a view past the bound does.
func (l *slotLog) publish(next uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if keep := min(next, l.newest); keep > l.base {
		l.dropFront(int(min(keep-l.base, uint64(len(l.entries)))))
	}
	l.newest = next
}

func (l *slotLog) dropFront(n int) {
	for _, en := range l.entries[:n] {
		l.size -= 1 + len(en.edges)
	}
	clear(l.entries[:n])
	l.entries = l.entries[n:]
	l.base += uint64(n)
}

// chain is the delta that brings a view at cursor, with the entries below
// next accounted for, to the log's end (returned too); ok is false when an
// entry was dropped, is a mark or does not connect. Concurrent forwards are
// acknowledged in any order, so each link is looked for among all left.
func (l *slotLog) chain(cursor string, next uint64) (d vos.SketchDelta, end uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	end = l.base + uint64(len(l.entries))
	if next < l.base || cursor == "" {
		return d, end, false
	}
	rest := slices.Clone(l.entries[next-l.base:])
	for k := range rest { // in order, each link is the first entry left
		i := k + slices.IndexFunc(rest[k:], func(en logEntry) bool { return en.span.Before == cursor })
		if i < k {
			return vos.SketchDelta{}, end, false
		}
		rest[k], rest[i] = rest[i], rest[k]
		d.Edges, cursor = append(d.Edges, rest[k].edges...), rest[k].span.After
	}
	d.Cursor = cursor
	return d, end, true
}

// acquire returns the published merged view, current as of the call, with
// the caller registered as a reader; the caller must Release it. Strict:
// every backend must answer, or the read fails.
func (g *Gateway) acquire(ctx context.Context) (*gatherView, error) {
	if g.closed.Load() {
		return nil, vos.ErrClosed
	}
	return g.views.Acquire(ctx, g.src)
}

// SnapshotStats implements vos.StatsReporter: how the merged views have
// been kept current, and the bytes backends sent to that end.
func (g *Gateway) SnapshotStats() vos.SnapshotStats {
	st := g.views.Stats()
	st.GatheredBytes = g.gathered.Load()
	st.LocalReplays = g.localReplays.Load()
	return st
}

// ANNStats implements vos.StatsReporter: a gateway keeps no approximate
// top-K index, so /v1/stats carries no `ann` object for it.
func (g *Gateway) ANNStats() (vos.ANNStats, bool) { return vos.ANNStats{}, false }

// gatherSource drives the gateway's view pair (resident.Source).
type gatherSource struct{ g *Gateway }

// Current is the quiet path: no write was attempted and no shard moved
// since the view was gathered, so it is served without a backend request.
func (s *gatherSource) Current(st *gatherStamp) bool {
	return st.seq == s.g.ingests.Load() && st.ver == s.g.ringRef().Version
}

// Refresh brings from forward, each slot from its log where the log chains
// from the view's cursor and from its backend's journal suffix where not; if
// any backend answers in full instead (or there is no view to bring
// forward), it merges a fresh view from full exports. The pair's mutex is
// held throughout, so concurrent first readers after a write share one round
// of requests.
func (s *gatherSource) Refresh(ctx context.Context, from *gatherView) (*gatherView, resident.Cause, int, error) {
	g := s.g
	seq, ring := g.ingests.Load(), g.ringRef() // before the gather: a racing ingest can only make the view refresh early
	parts := make([]part, ring.NumShards())
	cause := resident.First // without a view the pair counts its own cause
	switch {
	case from == nil:
	case from.Stamp.ver != ring.Version:
		// Another ring is another set of parts; nothing connects the views.
		cause = resident.Ring
	default:
		st := &from.Stamp
		asked := false
		for i := range parts {
			p := &parts[i]
			p.d, p.end, p.local = g.logs[i].chain(st.cursors[i], st.next[i])
			asked = asked || !p.local
		}
		g.gather(ctx, ring, parts, st.cursors)
		for i := range parts {
			if parts[i].err != nil {
				return nil, 0, 0, parts[i].err
			}
		}
		if cause = fullCause(parts, st.cursors); cause == resident.Replayed {
			// All or nothing: the cursors move only together with the edges
			// they account for, and only when every slot has its edges.
			edges := 0
			for i := range parts {
				from.Sk.ProcessBatch(parts[i].d.Edges)
				edges += len(parts[i].d.Edges)
				st.cursors[i], st.next[i] = parts[i].d.Cursor, parts[i].end
			}
			st.seq = seq
			if !asked {
				g.localReplays.Add(1)
			}
			g.published(st.next)
			return from, cause, edges, nil
		}
		for i := range parts {
			parts[i].local = false // a fresh view takes every slot whole
		}
	}
	g.gather(ctx, ring, parts, nil)
	merged, _, err := g.merge(parts, false)
	if err != nil {
		return nil, 0, 0, err
	}
	st := gatherStamp{seq: seq, ver: ring.Version, cursors: make([]string, len(parts)), next: make([]uint64, len(parts))}
	for i := range parts {
		st.cursors[i], st.next[i] = parts[i].d.Cursor, parts[i].end
	}
	g.published(st.next)
	return &gatherView{Sk: merged, Stamp: st}, cause, 0, nil
}

// published tells each slot log the accounting of the view Refresh returns,
// in publishing order: Refresh runs under the pair's mutex.
func (g *Gateway) published(next []uint64) {
	for i, n := range next {
		g.logs[i].publish(n)
	}
}

// fullCause says why the first backend that answered its cursor in full did
// so; Replayed if every one sent a delta or was not asked.
func fullCause(parts []part, since []string) resident.Cause {
	for i := range parts {
		switch d := &parts[i].d; {
		case d.Full == nil:
		case since[i] == "" || d.Cursor == "":
			return resident.NoDelta
		case d.Fallback == vos.SketchFallbackJournal:
			return resident.Overflow
		default:
			return resident.Epoch
		}
	}
	return resident.Replayed
}

// part is one slot's share of a refresh: its backend's answer to a gather,
// or, local, the delta its log chain makes without one.
type part struct {
	d     vos.SketchDelta
	sk    *core.VOS // d.Full decoded
	err   error
	end   uint64 // the slot log's end when the backend was asked, or the chain cut
	local bool
}

// gather asks, in parallel, every backend of ring that parts holds neither a
// full export of nor a local chain for its state since the cursor given for
// it (in full, with since nil) and records the answers in parts. The last
// backend is asked on the caller's goroutine, so asking one starts none.
func (g *Gateway) gather(ctx context.Context, ring *Ring, parts []part, since []string) {
	var wg sync.WaitGroup
	next := -1 // asked on its own goroutine once a later slot to ask turns up
	for i := range parts {
		if parts[i].sk != nil || parts[i].local {
			continue
		}
		if next >= 0 {
			wg.Add(1)
			go func(i int) { defer wg.Done(); g.ask(ctx, ring, i, &parts[i], since) }(next)
		}
		next = i
	}
	if next >= 0 {
		g.ask(ctx, ring, next, &parts[next], since)
	}
	wg.Wait()
}

// ask is gather's request to the backend in ring slot i.
func (g *Gateway) ask(ctx context.Context, ring *Ring, i int, p *part, since []string) {
	url := ring.Shards[i]
	*p = part{end: g.logs[i].end()} // read before the request: what is logged by now, the answer covers
	c, err := g.backend(url)
	if err == nil {
		cursor := ""
		if since != nil {
			cursor = since[i]
		}
		var n int
		p.d, n, err = c.ExportSince(ctx, cursor)
		g.gathered.Add(uint64(n))
	}
	if err == nil && p.d.Full != nil {
		p.sk, err = core.UnmarshalVOS(p.d.Full)
	}
	if err != nil {
		p.err = &backendError{url, err}
	}
}

// merge XORs the gathered full exports into a fresh sketch. With
// allowPartial, backends that failed are skipped and complete=false reports
// the gap; otherwise any failure fails the merge.
func (g *Gateway) merge(parts []part, allowPartial bool) (merged *core.VOS, complete bool, err error) {
	complete = true
	for _, p := range parts {
		if p.err != nil {
			if !allowPartial {
				return nil, false, p.err
			}
			complete = false
			continue
		}
		if merged == nil {
			merged = core.MustNew(p.sk.Config())
			merged.SetPositionCache(g.pcache)
		}
		if err := merged.Merge(p.sk); err != nil {
			// A backend serving a different sketch config is misconfigured,
			// not unreachable: never paper over it with a partial answer.
			return nil, false, err
		}
	}
	if merged == nil {
		return nil, false, errNoBackends
	}
	return merged, complete, nil
}
