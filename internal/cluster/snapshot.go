package cluster

import (
	"context"
	"fmt"
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
// kept the way the engine keeps its own (internal/resident): two resident
// merged views, the spare brought forward by replaying what each backend
// applied since the view's cursor for it. The backend ships that as its
// journal suffix (GET /v1/cluster/sketch?since=cursor), so a read after a
// write moves and folds in the write, not the arrays.
//
// A fresh view — full exports from every backend, merged from zero — is the
// fallback, counted by cause in SnapshotStats: the first two refreshes, a
// cursor older than a backend's bounded journal, a backend whose epoch
// changed (it restarted, imported a handed-off shard, or rotated its
// window), a new ring version, a spare still held by a long read, and a
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
	// it this view holds; empty for a backend that gave none.
	cursors []string
}

type gatherView = resident.View[gatherStamp]

// errNoBackends reports a gather that reached zero nodes.
var errNoBackends = fmt.Errorf("%w: no cluster backend reachable", vos.ErrQueryUnavailable)

// acquire returns the published merged view, current as of the call, with
// the caller registered as a reader; the caller must Release it. Strict:
// every backend must answer, or the read fails.
func (g *Gateway) acquire(ctx context.Context) (*gatherView, error) {
	if g.closed.Load() {
		return nil, vos.ErrClosed
	}
	return g.views.Acquire(ctx, g.src)
}

// SnapshotStats implements vos.SnapshotReporter: how the merged views have
// been kept current, and the bytes backends sent to that end.
func (g *Gateway) SnapshotStats() vos.SnapshotStats {
	st := g.views.Stats()
	st.GatheredBytes = g.gathered.Load()
	return st
}

// gatherSource drives the gateway's view pair (resident.Source).
type gatherSource struct{ g *Gateway }

// Current is the quiet path: no write was attempted and no shard moved
// since the view was gathered, so it is served without a backend request.
func (s *gatherSource) Current(st *gatherStamp) bool {
	return st.seq == s.g.ingests.Load() && st.ver == s.g.ringRef().Version
}

// Refresh asks every backend for what it applied since the spare's cursor
// and folds the answers in; if any backend answers in full instead (or
// there is no spare to bring forward), it merges a fresh view from full
// exports, asking again only the backends that answered with a delta. The
// pair's mutex is held throughout, so concurrent first readers after a
// write share one round of requests.
func (s *gatherSource) Refresh(ctx context.Context, spare *gatherView) (*gatherView, resident.Cause, int, error) {
	g := s.g
	seq, ring := g.ingests.Load(), g.ringRef() // before the gather: a racing ingest can only make the view refresh early
	parts := make([]part, ring.NumShards())
	cause := resident.First // without a spare the pair counts its own cause
	switch {
	case spare == nil:
	case spare.Stamp.ver != ring.Version:
		// Another ring is another set of parts; nothing connects the views.
		cause = resident.Ring
	default:
		st := &spare.Stamp
		g.gather(ctx, ring, parts, st.cursors)
		for i := range parts {
			if parts[i].err != nil {
				return nil, 0, 0, parts[i].err
			}
		}
		if cause = fullCause(parts, st.cursors); cause == resident.Replayed {
			// All or nothing: the cursors move only together with the edges
			// they account for, and only when every backend sent a delta.
			edges := 0
			for i := range parts {
				spare.Sk.ProcessBatch(parts[i].d.Edges)
				edges += len(parts[i].d.Edges)
				st.cursors[i] = parts[i].d.Cursor
			}
			st.seq = seq
			return spare, cause, edges, nil
		}
	}
	g.gather(ctx, ring, parts, nil)
	merged, _, err := g.merge(parts, false)
	if err != nil {
		return nil, 0, 0, err
	}
	st := gatherStamp{seq: seq, ver: ring.Version, cursors: make([]string, len(parts))}
	for i := range parts {
		st.cursors[i] = parts[i].d.Cursor
	}
	return &gatherView{Sk: merged, Stamp: st}, cause, 0, nil
}

// fullCause says why the first backend that answered its cursor in full did
// so; Replayed if every one sent a delta.
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

// part is one backend's answer to a gather.
type part struct {
	d   vos.SketchDelta
	sk  *core.VOS // d.Full decoded
	err error
}

// gather asks, in parallel, every backend of ring that parts holds no full
// export of yet for its state since the cursor given for it (in full, with
// since nil) and records the answers in parts.
func (g *Gateway) gather(ctx context.Context, ring *Ring, parts []part, since []string) {
	var wg sync.WaitGroup
	for i, url := range ring.Shards {
		if parts[i].sk != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &parts[i]
			*p = part{}
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
		}()
	}
	wg.Wait()
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
