package core

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"github.com/vossketch/vos/internal/stream"
)

// TopKResult pairs a candidate user with its similarity estimate, the unit
// a top-K similarity search returns.
type TopKResult struct {
	User     stream.User `json:"user"`
	Estimate Estimate    `json:"estimate"`
}

// RankBefore reports whether a outranks b in a top-K result: higher
// estimated Jaccard first, ties broken by smaller user ID — the same total
// order similarity.TopSimilar has always used, so rankings are
// deterministic. It is a total order over distinct users, which is why a
// top-K answer is the same whichever participant of the fan-out scored
// which candidate, and why callers can check a ranking against it.
func RankBefore(a, b TopKResult) bool {
	return rank(ranked{jac: a.Estimate.Jaccard, user: a.User}, ranked{jac: b.Estimate.Jaccard, user: b.User}) < 0
}

// ranked is one scored candidate as a scan's heaps hold it: Ĵ, which ranks
// it, and the z and n_w its full Estimate is built from should it be among
// the n kept — 32 bytes where a TopKResult is 80, and no estimate built for
// a candidate that loses.
type ranked struct {
	jac  float64
	user stream.User
	z    int
	card int64
}

// rank is RankBefore's order over records: negative when a outranks b.
func rank(a, b ranked) int {
	switch {
	case a.jac > b.jac, a.jac == b.jac && a.user < b.user:
		return -1
	case a.jac == b.jac && a.user == b.user:
		return 0
	}
	return 1
}

// topHeap is a bounded min-heap of ranked records: the root is the worst
// retained one, so offering a stream of candidates keeps the best n seen
// in O(len · log n) with no full sort or per-candidate allocation.
type topHeap struct {
	n  int
	xs []ranked
}

func newTopHeap(n int) *topHeap {
	return &topHeap{n: n, xs: make([]ranked, 0, n)}
}

// offer considers one candidate.
func (h *topHeap) offer(r ranked) {
	if h.n <= 0 {
		return
	}
	if len(h.xs) < h.n {
		h.xs = append(h.xs, r)
		h.siftUp(len(h.xs) - 1)
		return
	}
	if rank(r, h.xs[0]) >= 0 {
		return
	}
	h.xs[0] = r
	h.siftDown(0)
}

func (h *topHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		// Min-heap on rank: the parent must be no better than the child.
		if rank(h.xs[p], h.xs[i]) >= 0 {
			return
		}
		h.xs[p], h.xs[i] = h.xs[i], h.xs[p]
		i = p
	}
}

func (h *topHeap) siftDown(i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h.xs) && rank(h.xs[worst], h.xs[l]) < 0 {
			worst = l
		}
		if r := 2*i + 2; r < len(h.xs) && rank(h.xs[worst], h.xs[r]) < 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h.xs[i], h.xs[worst] = h.xs[worst], h.xs[i]
		i = worst
	}
}

// results consumes the heap and returns its records best-first, each with
// the full estimate against r.
func (v *VOS) results(h *topHeap, r *Recovered) []TopKResult {
	slices.SortFunc(h.xs, rank)
	out := make([]TopKResult, len(h.xs))
	for i, x := range h.xs {
		out[i] = TopKResult{User: x.user, Estimate: v.estimateFrom(x.z, r.card, x.card, r.load)}
	}
	return out
}

// TopK returns the n candidates most similar to u — highest estimated
// Jaccard, ties broken by user ID — with their full estimates, best first.
// The probe user's virtual sketch is recovered once and every candidate is
// compared against it with the packed word-level path; a bounded min-heap
// keeps the running top n, so the search is one pass and never sorts the
// full candidate set. u itself is skipped if present among the candidates.
//
// The ranking and estimates are identical to sorting per-pair Query
// results: same recovered bits, same estimator, same tie order.
func (v *VOS) TopK(u stream.User, candidates []stream.User, n int) []TopKResult {
	return v.TopKRecovered(v.RecoverSketch(u), candidates, n)
}

// TopKRecovered is TopK against an already-recovered probe sketch, for
// callers that recover the probe once and rank several candidate lists
// against it. r.User() is skipped if present among the candidates.
func (v *VOS) TopKRecovered(r *Recovered, candidates []stream.User, n int) []TopKResult {
	out, _ := v.TopKRecoveredContext(context.Background(), r, candidates, n)
	return out
}

// cancelCheckStride is how many candidates a sequential scan streams
// between context polls. A poll is one channel select; at the paper's k a
// single candidate comparison costs microseconds, so a stride of 256 keeps
// the poll overhead unmeasurable while bounding the post-cancellation
// latency to a few hundred comparisons.
const cancelCheckStride = 256

// The fan-out is sized by the work a call owes, not by its candidate
// count: a cached candidate costs a ~k/64-word XOR and popcount, a cold
// one k hashes and k array probes, tens of times more. The caller scores
// fanOutSample candidates alone, extrapolates the rest from their elapsed
// time, and starts helpers only where every participant is owed at least
// fanOutShare — less than that and the helper's start-up and the cores it
// takes from the next reader cost more than it saves. Candidates that
// average under fanOutMinCost are cache hits, about half of whose time is
// the recovered-sketch cache's lock and lookup: a second core only
// contends for it, so they stay with the caller however many there are.
// Participants claim fanOutChunk candidates at a time from one shared
// cursor, so a slow or late participant holds back at most one chunk.
const (
	fanOutSample  = 4
	fanOutShare   = 100 * time.Microsecond
	fanOutMinCost = time.Microsecond
	fanOutChunk   = 8
)

// forceFanOut starts every helper GOMAXPROCS allows, whatever the work;
// tests turn it on to run the fan-out at sizes the rule keeps sequential.
var forceFanOut = false

// TopKRecoveredContext is TopKRecovered with cooperative cancellation: the
// scan polls ctx between candidate runs and returns ctx.Err() when the
// context is cancelled, so a caller can abort a long scan. A context that
// is never cancelled adds no per-candidate work — context.Background's
// Done channel is nil and the poll is skipped.
//
// This is the one exact top-K every read path shares (the engine's scan
// and its ANN scoring, the gateway's merged and partial views), and the
// one place it runs on more than one core: see fanOutShare for when
// helpers start. The caller never parks —
// it scores beside its helpers until the candidates run out, and returns
// only once every helper that claimed candidates has finished with them,
// on cancellation too, so nothing reads the sketch after the call returns
// and a caller's lock or view hold covers every read. The answer is
// identical for any number of participants: each keeps its own bounded
// heap, and the heaps merge under the RankBefore total order.
func (v *VOS) TopKRecoveredContext(ctx context.Context, r *Recovered, candidates []stream.User, n int) ([]TopKResult, error) {
	// Clamp before the heap pre-allocates capacity n: the result can never
	// exceed the candidate count, and callers pass n straight from
	// untrusted request bodies (the /v1/topk handler).
	if n > len(candidates) {
		n = len(candidates)
	}
	if n < 0 {
		n = 0
	}
	h := newTopHeap(n)
	if n == 0 {
		return v.results(h, r), nil
	}
	done := ctx.Done()
	if stopped(done) {
		return nil, ctx.Err()
	}
	sampled := 0
	if procs := runtime.GOMAXPROCS(0); procs > 1 && len(candidates) > fanOutSample {
		sampled = fanOutSample
		start := time.Now()
		v.offerAll(h, r, candidates[:sampled])
		if helpers := fanOutHelpers(time.Since(start), sampled, len(candidates)-sampled, procs); helpers > 0 {
			return v.fanOut(ctx, h, r, candidates, sampled, helpers)
		}
	}
	for lo := sampled; lo < len(candidates); lo += cancelCheckStride {
		if lo > sampled && stopped(done) {
			return nil, ctx.Err()
		}
		v.offerAll(h, r, candidates[lo:min(lo+cancelCheckStride, len(candidates))])
	}
	return v.results(h, r), nil
}

// fanOutHelpers is how many helpers the rest candidates pay for, given that
// sampled of them took elapsed: none for cache hits, else as many as give
// every participant, caller included, fanOutShare of the extrapolated
// work, at most one per spare P.
func fanOutHelpers(elapsed time.Duration, sampled, rest, procs int) int {
	if forceFanOut {
		return procs - 1
	}
	per := elapsed / time.Duration(sampled)
	if per < fanOutMinCost {
		return 0
	}
	return max(0, min(procs-1, int(per*time.Duration(rest)/fanOutShare)-1))
}

// offerAll scores every candidate but the probe into h, taking each one's
// Ĵ alone: the estimates are built for the winners only (results).
func (v *VOS) offerAll(h *topHeap, r *Recovered, candidates []stream.User) {
	k := float64(v.cfg.SketchBits)
	for _, w := range candidates {
		if w != r.user {
			z, nw := v.score(r, w)
			_, _, jac := jaccardFrom(k, v.logTerm(z, r.load), r.card, nw)
			h.offer(ranked{jac: jac, user: w, z: z, card: nw})
		}
	}
}

// stopped polls a context's Done channel without blocking; a nil channel
// (a context that can never be cancelled) is never stopped.
func stopped(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// topKFanOut is the state the participants of one fanned-out scan share.
type topKFanOut struct {
	v     *VOS
	r     *Recovered
	cands []stream.User
	n     int
	done  <-chan struct{}

	// next is the first unclaimed candidate; once it reaches len(cands) it
	// never drops below it again, and nothing but a successful claim reads
	// the sketch.
	next atomic.Int64
	// busy counts helpers between their first claim and their publish. A
	// helper raises it before it claims, so a caller that has seen the
	// cursor run out and busy at zero has every claimed chunk scored.
	busy atomic.Int32
	// tops[i] is helper i's heap, set only by a helper that claimed
	// candidates and read only once busy is back at zero.
	tops []*topHeap
}

// fanOut scores candidates[from:] with helpers beside the caller, whose
// heap h already holds the sample, and merges the helpers' heaps into h.
func (v *VOS) fanOut(ctx context.Context, h *topHeap, r *Recovered, candidates []stream.User, from, helpers int) ([]TopKResult, error) {
	f := &topKFanOut{v: v, r: r, cands: candidates, n: h.n, done: ctx.Done(), tops: make([]*topHeap, helpers)}
	f.next.Store(int64(from))
	for i := range helpers {
		go f.help(i)
	}
	// A new goroutine waits in its spawner's runnext slot, which an idle P
	// steals from only after a sleep of ≥ 50 µs (runtime.runqgrab). Yield
	// once, so this P runs a helper now and the caller goes on where a P is
	// free; with none free the helper scores alone until the caller is back.
	runtime.Gosched()
	f.scan(h)
	// The cursor is exhausted: only chunks already claimed are left, at
	// most one a helper. Yield to them rather than park on a WaitGroup —
	// the wake-up would cost more than the chunk.
	for f.busy.Load() != 0 {
		runtime.Gosched()
	}
	if stopped(f.done) {
		return nil, ctx.Err()
	}
	for _, t := range f.tops {
		if t != nil {
			for _, x := range t.xs {
				h.offer(x)
			}
		}
	}
	return v.results(h, r), nil
}

// help is helper i's whole life. One that starts after the cursor ran out
// reads it and leaves: the call it was started for may have returned.
func (f *topKFanOut) help(i int) {
	if f.next.Load() >= int64(len(f.cands)) {
		return
	}
	f.busy.Add(1)
	h := newTopHeap(f.n)
	if f.scan(h) {
		f.tops[i] = h
	}
	f.busy.Add(-1)
}

// scan claims chunks into h until the cursor runs out or the context is
// cancelled, and reports whether it claimed any. A participant that sees
// the cancellation exhausts the cursor for everyone.
func (f *topKFanOut) scan(h *topHeap) (claimed bool) {
	end := int64(len(f.cands))
	for {
		lo := f.next.Add(fanOutChunk) - fanOutChunk
		if lo >= end {
			return claimed
		}
		claimed = true
		if stopped(f.done) {
			f.next.Store(end)
			return claimed
		}
		f.v.offerAll(h, f.r, f.cands[lo:min(lo+fanOutChunk, end)])
	}
}
