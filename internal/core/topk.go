package core

import (
	"context"
	"sort"

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
// deterministic. It is exported so the engine's parallel merge sorts with
// exactly the ordering the heap used.
func RankBefore(a, b TopKResult) bool {
	if a.Estimate.Jaccard != b.Estimate.Jaccard {
		return a.Estimate.Jaccard > b.Estimate.Jaccard
	}
	return a.User < b.User
}

// better is RankBefore under the short name the heap reads naturally.
func better(a, b TopKResult) bool { return RankBefore(a, b) }

// topHeap is a bounded min-heap of TopKResult keyed by better: the root is
// the worst retained result, so offering a stream of candidates keeps the
// best n seen in O(len · log n) with no full sort or per-candidate
// allocation.
type topHeap struct {
	n  int
	xs []TopKResult
}

func newTopHeap(n int) *topHeap {
	return &topHeap{n: n, xs: make([]TopKResult, 0, n)}
}

// offer considers one candidate result.
func (h *topHeap) offer(r TopKResult) {
	if h.n <= 0 {
		return
	}
	if len(h.xs) < h.n {
		h.xs = append(h.xs, r)
		h.siftUp(len(h.xs) - 1)
		return
	}
	if !better(r, h.xs[0]) {
		return
	}
	h.xs[0] = r
	h.siftDown(0)
}

func (h *topHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		// Min-heap on better: the parent must be no better than the child.
		if !better(h.xs[p], h.xs[i]) {
			return
		}
		h.xs[p], h.xs[i] = h.xs[i], h.xs[p]
		i = p
	}
}

func (h *topHeap) siftDown(i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h.xs) && better(h.xs[worst], h.xs[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h.xs) && better(h.xs[worst], h.xs[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.xs[i], h.xs[worst] = h.xs[worst], h.xs[i]
		i = worst
	}
}

// sorted consumes the heap and returns its contents best-first.
func (h *topHeap) sorted() []TopKResult {
	sort.Slice(h.xs, func(i, j int) bool { return better(h.xs[i], h.xs[j]) })
	return h.xs
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

// TopKRecovered is TopK against an already-recovered probe sketch: one
// pass over candidates, bounded heap, best-first result. It is the
// per-worker building block of the engine's parallel top-K, which recovers
// the probe once and hands each goroutine a candidate range. r.User() is
// skipped if present among the candidates.
func (v *VOS) TopKRecovered(r *Recovered, candidates []stream.User, n int) []TopKResult {
	out, _ := v.TopKRecoveredContext(context.Background(), r, candidates, n)
	return out
}

// cancelCheckStride is how many candidates TopKRecoveredContext streams
// between context polls. A poll is one channel select; at the paper's k a
// single candidate comparison costs microseconds, so a stride of 256 keeps
// the poll overhead unmeasurable while bounding the post-cancellation
// latency to a few hundred comparisons per worker.
const cancelCheckStride = 256

// TopKRecoveredContext is TopKRecovered with cooperative cancellation: the
// candidate loop polls ctx every cancelCheckStride candidates and returns
// ctx.Err() early when the context is cancelled, so a caller can abort a
// long scan (the engine's parallel top-K plumbs each worker's range through
// here). A context that is never cancelled adds no per-candidate work —
// context.Background's Done channel is nil and the poll is skipped.
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
	done := ctx.Done()
	for i, w := range candidates {
		if done != nil && i%cancelCheckStride == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		if w == r.user {
			continue
		}
		h.offer(TopKResult{User: w, Estimate: v.QueryRecovered(r, w)})
	}
	return h.sorted(), nil
}
