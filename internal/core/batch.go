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
//     without a position cache the classic family hashes them inside the
//     gather instead (hashing.Family.GatherXor, whole 64-slot blocks), so
//     no table is written;
//   - QueryRecovered compares a candidate against the packed sketch with
//     a fused gather + XOR + popcount, ~k/64 word operations instead of a
//     per-bit comparison loop, hashing inside it the same way.
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
	ws := make([]uint64, (v.cfg.SketchBits+63)/64)
	return bitset.FromWordsCountedUnsafe(ws, uint64(v.cfg.SketchBits), v.gatherXor(ws, ws, u))
}

// gatherXor gathers u's recovered bits as bitset.GatherXorWords does: block
// b's word w goes to dst[b] unless dst is nil, and the result sums
// popcount(w ^ ows[b]). A cached position table is gathered as it is.
// Without one, the classic family hashes and gathers its whole 64-slot
// blocks in one pass (hashing.Family.GatherXor) and fills the tail block's
// positions on the stack; every case that pass declines fills a pooled
// table (a new pointer to it would cost an allocation a read), then
// gathers it.
func (v *VOS) gatherXor(dst, ows []uint64, u stream.User) uint64 {
	if v.pos != nil {
		return v.arr.GatherXorWords(dst, ows, v.Positions(u))
	}
	if v.slots != nil {
		blocks, ones := v.slots.GatherXor(dst, ows, v.arr.UnsafeWords(), uint64(u), v.cfg.MemoryBits)
		if blocks > 0 {
			var tail [63]uint64
			from := blocks * 64
			pos := tail[:v.cfg.SketchBits-from]
			for j := range pos {
				pos[j] = v.slots.HashRange(from+j, uint64(u), v.cfg.MemoryBits)
			}
			if dst != nil {
				dst = dst[blocks:]
			}
			return ones + v.arr.GatherXorWords(dst, ows[blocks:], pos)
		}
	}
	p, ok := v.posScratch.Get().(*[]uint64)
	if !ok {
		buf := make([]uint64, v.cfg.SketchBits)
		p = &buf
	}
	v.fillPositions(*p, u)
	ones := v.arr.GatherXorWords(dst, ows, *p)
	v.posScratch.Put(p)
	return ones
}

// QueryRecovered estimates the similarity between a recovered snapshot of
// user u and user w, equivalent to Query(u, w) against the sketch state at
// recovery time.
func (v *VOS) QueryRecovered(r *Recovered, w stream.User) Estimate {
	z, nw := v.score(r, w)
	return v.estimateFrom(z, r.card, nw, r.load)
}

// score returns the number of slots where w's recovered bits differ from
// r's, and w's cardinality: what an estimate of the pair is built from.
// When w's recovered sketch is cached at the current write version the
// count is a pure XOR+popcount over ~k/64 words — no hashing, no array
// probes; otherwise w's bits are gathered (and cached), fused with the XOR
// 64 virtual slots at a time.
func (v *VOS) score(r *Recovered, w stream.User) (z int, nw int64) {
	if v.rec != nil {
		// Hot path: compare the packed snapshots word for word, straight
		// off the cached slice — no gather, no allocation, no recount.
		if ws, _, ok := v.rec.GetVersioned(w, v.version); ok {
			return int(r.bits.XorCountWords(ws)), v.card.get(w)
		}
		// Miss: materialise w's bits (rather than fusing the XOR into the
		// gather) so the cache warms and the next pass runs probe-free.
		bits := v.gatherBits(w)
		v.rec.PutVersioned(w, v.version, bits.UnsafeWords(), bits.Count())
		return int(r.bits.XorCount(bits)), v.card.get(w)
	}
	return int(v.gatherXor(nil, r.bits.UnsafeWords(), w)), v.card.get(w)
}
