package core

import (
	"github.com/vossketch/vos/internal/bitset"
	"github.com/vossketch/vos/internal/stream"
)

// Materialized queries: the paper's read path recovers a user's k virtual
// bits by evaluating k seeded hashes and probing k single bits of the
// shared array, per user, per query — at k = 6400 the hashing alone
// dominates the query. This file materializes the read path instead:
//
//   - Positions returns the user's immutable position table f_1(u)…f_k(u)
//     (a pure function of user, seed, and m), filled with the batched
//     hashing.Family.HashRangeInto loop and served from the attached
//     poscache.Cache when one is present, so hot users skip hashing
//     entirely;
//   - RecoverSketch gathers those k bits once into a packed k-bit bitset;
//   - QueryRecovered compares a candidate against the packed sketch with
//     a fused gather + XOR + popcount, ~k/64 word operations instead of a
//     per-bit comparison loop.
//
// Every path computes the differing-slot count z from the same recovered
// bits the scalar path reads, so estimates are bit-identical to
// QueryPerBit — pinned by TestQueryParityPerBitVsMaterialized.

// Positions returns user u's position table [f_1(u), …, f_k(u)], each in
// [0, m). The table depends only on the user and the sketch Config, never
// on the array contents, so it stays valid across updates and merges. The
// returned slice may be shared with the position cache: callers must treat
// it as read-only.
func (v *VOS) Positions(u stream.User) []uint64 {
	if v.pos != nil {
		if p, ok := v.pos.Get(u); ok {
			return p
		}
	}
	p := make([]uint64, v.cfg.SketchBits)
	v.fillPositions(p, u)
	if v.pos != nil {
		v.pos.Put(u, p)
	}
	return p
}

// lookupPositions is Positions for transient use inside a single query: a
// cache hit (or a miss that fills the cache) returns the durable table,
// while the cache-less path fills a pooled scratch buffer instead of
// allocating k words per query. scratch is nil in the first case; in the
// second the caller puts that same pointer back into posScratch as soon as
// the query is done with pos (a new pointer to pos would cost an allocation
// a read). sync.Pool is concurrency-safe, so the read paths stay race-clean.
func (v *VOS) lookupPositions(u stream.User) (pos []uint64, scratch *[]uint64) {
	if v.pos != nil {
		return v.Positions(u), nil
	}
	p, ok := v.posScratch.Get().(*[]uint64)
	if !ok {
		buf := make([]uint64, v.cfg.SketchBits)
		p = &buf
	}
	v.fillPositions(*p, u)
	return *p, p
}

// Recovered is a dense snapshot of one user's virtual odd sketch, reusable
// across queries against a fixed sketch state. It is invalidated by any
// subsequent write — Process or Merge — (the shared array changes
// underneath it); re-recover after updates.
type Recovered struct {
	user stream.User
	bits *bitset.Bitset
	card int64
	load load
}

// Words exposes the packed recovered sketch as 64-bit words — bit j of
// the virtual sketch lives at words[j/64] >> (j%64). The slice aliases the
// snapshot's (and possibly the recovered-sketch cache's) backing memory:
// callers must treat it as read-only. It is the banding surface of the
// approximate top-K index (internal/lsh.BandIndex).
func (r *Recovered) Words() []uint64 { return r.bits.UnsafeWords() }

// RecoverSketch snapshots user u's virtual odd sketch Ô_u as k packed bits
// together with the cardinality and array load at recovery time. Bit j of
// the result is A[f_j(u)], gathered word-by-word from the shared array —
// or taken straight from the recovered-sketch cache when u was already
// recovered at the current write version.
func (v *VOS) RecoverSketch(u stream.User) *Recovered {
	return &Recovered{
		user: u,
		bits: v.recoverBits(u),
		card: v.card.get(u),
		load: v.loadAt(v.Beta()),
	}
}

// recoverBits returns u's packed recovered sketch, serving and filling the
// versioned cache. Cached words are wrapped without copying; the resulting
// bitset is read-only by the Recovered contract.
func (v *VOS) recoverBits(u stream.User) *bitset.Bitset {
	if v.rec != nil {
		if ws, ones, ok := v.rec.GetVersioned(u, v.version); ok {
			return bitset.FromWordsCountedUnsafe(ws, uint64(v.cfg.SketchBits), ones)
		}
	}
	bits := v.gatherBits(u)
	if v.rec != nil {
		v.rec.PutVersioned(u, v.version, bits.UnsafeWords(), bits.Count())
	}
	return bits
}

// gatherBits materialises u's packed recovered sketch from the shared
// array, bypassing the recovered-sketch cache.
func (v *VOS) gatherBits(u stream.User) *bitset.Bitset {
	pos, scratch := v.lookupPositions(u)
	bits := v.arr.Gather(pos)
	if scratch != nil {
		v.posScratch.Put(scratch)
	}
	return bits
}

// QueryRecovered estimates the similarity between a recovered snapshot of
// user u and user w, equivalent to Query(u, w) against the sketch state at
// recovery time. When w's recovered sketch is cached at the current
// write version the comparison is a pure XOR+popcount over ~k/64 words —
// no hashing, no array probes; otherwise w's bits are gathered (and
// cached), fused with the XOR 64 virtual slots at a time.
func (v *VOS) QueryRecovered(r *Recovered, w stream.User) Estimate {
	if v.rec != nil {
		// Hot path: compare the packed snapshots word for word, straight
		// off the cached slice — no gather, no allocation, no recount.
		if ws, _, ok := v.rec.GetVersioned(w, v.version); ok {
			return v.estimateFrom(int(r.bits.XorCountWords(ws)), r.card, v.card.get(w), r.load)
		}
		// Miss: materialise w's bits (rather than fusing the XOR into the
		// gather) so the cache warms and the next pass runs probe-free.
		bits := v.gatherBits(w)
		v.rec.PutVersioned(w, v.version, bits.UnsafeWords(), bits.Count())
		return v.estimateFrom(int(r.bits.XorCount(bits)), r.card, v.card.get(w), r.load)
	}
	pos, scratch := v.lookupPositions(w)
	z := v.arr.GatherXorCount(pos, r.bits)
	if scratch != nil {
		v.posScratch.Put(scratch)
	}
	return v.estimateFrom(int(z), r.card, v.card.get(w), r.load)
}
