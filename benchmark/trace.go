package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around that call. Times are nanoseconds since the tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"request"`
	Name   string `json:"name"`
	// Phase is the measured phase the span ended in, empty outside them.
	Phase string `json:"phase,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Async marks a span recorded on a goroutine the request does not wait
	// on (the datagram receiver's sink); it is kept out of the closure sums.
	Async bool `json:"async,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay untouched; a tracer that is
// switched off records nothing either, which is how a traced run takes its
// own untraced base.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	next  atomic.Uint64
	mu    sync.Mutex
	phase string
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// spanRef is what a context carries: the enclosing span and its request.
type spanRef struct{ id, req uint64 }

// headerSpan carries a span reference across the loopback HTTP hop.
const headerSpan = "X-Bench-Span"

// start opens a span under the one ctx carries (a new request if none) and
// returns the context for its children and the function that closes it.
func (t *tracer) start(ctx context.Context, name string) (context.Context, func()) {
	if t == nil || !t.on.Load() {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	return t.startUnder(ctx, parent, name, false)
}

// startAsync opens a span that belongs to no request's blocking chain.
func (t *tracer) startAsync(name string) func() {
	if t == nil || !t.on.Load() {
		return func() {}
	}
	_, end := t.startUnder(context.Background(), spanRef{}, name, true)
	return end
}

func (t *tracer) startUnder(ctx context.Context, parent spanRef, name string, async bool) (context.Context, func()) {
	id := t.next.Add(1)
	req := parent.req
	if req == 0 {
		req = id
	}
	begin := time.Since(t.epoch).Nanoseconds()
	return context.WithValue(ctx, spanKey{}, spanRef{id, req}), func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent.id, Req: req, Name: name, Phase: t.phase, Start: begin, End: end, Async: async})
		t.mu.Unlock()
	}
}

// setPhase names the measured phase that spans ending from now on belong to.
func (t *tracer) setPhase(phase string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = phase
	t.mu.Unlock()
}

// all returns a copy of every span recorded; inPhase those of one phase.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) inPhase(phase string) []span {
	var out []span
	for _, s := range t.all() {
		if s.Phase == phase {
			out = append(out, s)
		}
	}
	return out
}

// tracedTransport records the client side of a loopback HTTP round trip
// and hands its span to the server through a header.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ctx, end := t.tr.start(r.Context(), "http.roundtrip")
	defer end()
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok { // the tracer is off
		return t.base.RoundTrip(r)
	}
	r = r.Clone(ctx)
	r.Header.Set(headerSpan, strconv.FormatUint(ref.id, 10)+"."+strconv.FormatUint(ref.req, 10))
	return t.base.RoundTrip(r)
}

// tracedHandler records the server side of the hop under the client's span.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var parent spanRef
	if id, req, ok := strings.Cut(r.Header.Get(headerSpan), "."); ok {
		parent.id, _ = strconv.ParseUint(id, 10, 64)
		parent.req, _ = strconv.ParseUint(req, 10, 64)
	}
	if !h.tr.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	ctx, end := h.tr.startUnder(r.Context(), parent, "server.handle", false)
	defer end()
	h.next.ServeHTTP(w, r.WithContext(ctx))
}

// interval arithmetic for self times.
type ivl struct{ a, b int64 }

// union returns the sorted, merged cover of iv.
func union(iv []ivl) []ivl {
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	var out []ivl
	for _, x := range iv {
		if n := len(out); n > 0 && x.a <= out[n-1].b {
			if x.b > out[n-1].b {
				out[n-1].b = x.b
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func coverLen(iv []ivl) int64 {
	var n int64
	for _, x := range iv {
		n += x.b - x.a
	}
	return n
}

// overlapLen returns the length of the intersection of two merged covers.
func overlapLen(x, y []ivl) int64 {
	var n int64
	for i, j := 0, 0; i < len(x) && j < len(y); {
		lo, hi := max(x[i].a, y[j].a), min(x[i].b, y[j].b)
		if hi > lo {
			n += hi - lo
		}
		if x[i].b < y[j].b {
			i++
		} else {
			j++
		}
	}
	return n
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	// TotalNS is the wall time the spans cover; SelfNS is that minus the
	// part their child spans cover.
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
	Async   bool  `json:"async,omitempty"`
}

// layerTable folds spans into per-name rows. Sibling spans of the same name
// (a gateway's parallel fan-out to its backends) are one layer used in
// parallel: they are merged into the cover of their intervals before self
// time is taken, so that on one request's blocking chain the rows' self
// times sum to the time the root span took.
func layerTable(spans []span) []layerRow {
	children := map[uint64][]*span{}
	known := map[uint64]bool{}
	for i := range spans {
		known[spans[i].ID] = true
	}
	var roots []*span
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 && known[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	rows := map[string]*layerRow{}
	var account func(name string, group []*span)
	account = func(name string, group []*span) {
		row := rows[name]
		if row == nil {
			row = &layerRow{Name: name, Async: group[0].Async}
			rows[name] = row
		}
		var own, kids []ivl
		byName := map[string][]*span{}
		for _, s := range group {
			own = append(own, ivl{s.Start, s.End})
			for _, c := range children[s.ID] {
				kids = append(kids, ivl{c.Start, c.End})
				byName[c.Name] = append(byName[c.Name], c)
			}
		}
		cover := union(own)
		row.Count += len(group)
		row.TotalNS += coverLen(cover)
		row.SelfNS += coverLen(cover) - overlapLen(cover, union(kids))
		for n, g := range byName {
			account(n, g)
		}
	}
	for _, r := range roots {
		account(r.Name, []*span{r})
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFile is what -trace writes at exit.
type traceFile struct {
	Workload string                `json:"workload"`
	Phases   map[string][]layerRow `json:"layers_by_phase"`
	Spans    []span                `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
