// Compare kernels: the inner loops behind Gather,
// GatherXorCount, and XorCountWords.
//
// Two implementations of each kernel live here, both always compiled:
//
//   - the *Ref form is the portable scalar loop — one index, one probe, one
//     read-modify-write per bit. It is the reference semantics: simple
//     enough to audit, and the form the equivalence tests trust.
//   - the *Blocked form is the throughput shape: 64-index blocks through
//     fixed-size array pointers (one bounds check a block), four probe
//     chains a step, the output word built in registers (the scalar loop's
//     per-bit read-modify-write serializes 64 probes). It is bound by its
//     instructions, not the array's misses, so with AVX-512 an assembly
//     body (kernels_amd64.s) takes each whole block up to the first with an
//     index ≥ n, eight probes a gather; the Go loop takes the rest, that
//     block included, so a panic is the reference's.
//
// XorCountWords has no *Blocked form; with AVX512_VPOPCNTDQ an assembly
// body takes its first len &^ 7 words (kernels_fast.go).
//
// Which form backs the public methods is decided per-platform by the
// dispatch shims (kernels_fast.go, kernels_portable.go): the blocked form
// on 64-bit targets where it is a measured win, the reference form
// elsewhere and under the purego build tag, which exists so CI can run the
// whole suite against the reference implementation. The two forms must be
// indistinguishable (results AND panics); kernels_test.go cross-checks
// them on random and adversarial patterns whatever the build dispatches to,
// with and without the assembly.

package bitset

import (
	"fmt"
	"math/bits"
)

// panicRange reports an out-of-range gather index with the same message as
// Bitset.check, so the blocked and reference kernels fail identically.
func panicRange(i, n uint64) {
	panic(fmt.Sprintf("bitset: index %d out of range [0, %d)", i, n))
}

// gatherWordsRef is the reference gather: dstW bit j = src bit idx[j].
// Returns the number of 1-bits gathered. dstW must be zeroed, with
// ceil(len(idx)/64) words.
func gatherWordsRef(dstW, src []uint64, n uint64, idx []uint64) uint64 {
	for j, p := range idx {
		if p >= n {
			panicRange(p, n)
		}
		dstW[j>>6] |= ((src[p>>6] >> (p & 63)) & 1) << (uint(j) & 63)
	}
	ones := uint64(0)
	for _, w := range dstW {
		ones += uint64(bits.OnesCount64(w))
	}
	return ones
}

// gatherWordsBlocked is the blocked gather; see the package comment for the
// shape. Semantics identical to gatherWordsRef.
func gatherWordsBlocked(dstW, src []uint64, n uint64, idx []uint64) uint64 {
	blocks, ones := gatherVec(dstW, dstW, src, n, idx)
	j := blocks * 64
	for ; j+64 <= len(idx); j += 64 {
		blk := (*[64]uint64)(idx[j:])
		var a0, a1, a2, a3 uint64
		for s := 0; s < 64; s += 4 {
			p0, p1, p2, p3 := blk[s], blk[s+1], blk[s+2], blk[s+3]
			if p0 >= n || p1 >= n || p2 >= n || p3 >= n {
				gatherCheck4(p0, p1, p2, p3, n)
			}
			a0 |= ((src[p0>>6] >> (p0 & 63)) & 1) << uint(s)
			a1 |= ((src[p1>>6] >> (p1 & 63)) & 1) << uint(s+1)
			a2 |= ((src[p2>>6] >> (p2 & 63)) & 1) << uint(s+2)
			a3 |= ((src[p3>>6] >> (p3 & 63)) & 1) << uint(s+3)
		}
		acc := (a0 | a1) | (a2 | a3)
		dstW[j>>6] = acc
		ones += uint64(bits.OnesCount64(acc))
	}
	if j < len(idx) {
		var acc uint64
		for s := 0; j+s < len(idx); s++ {
			p := idx[j+s]
			if p >= n {
				panicRange(p, n)
			}
			acc |= ((src[p>>6] >> (p & 63)) & 1) << uint(s)
		}
		dstW[j>>6] = acc
		ones += uint64(bits.OnesCount64(acc))
	}
	return ones
}

// gatherCheck4 panics for the first out-of-range index among four, in
// index order, matching the reference kernel's failure exactly.
func gatherCheck4(p0, p1, p2, p3, n uint64) {
	for _, p := range [4]uint64{p0, p1, p2, p3} {
		if p >= n {
			panicRange(p, n)
		}
	}
}

// gatherXorCountRef is the reference fused gather-and-compare: the number
// of positions j where src bit idx[j] differs from bit j of the packed
// words ows. Tail bits of ows past len(idx) must be zero.
func gatherXorCountRef(src []uint64, n uint64, idx []uint64, ows []uint64) uint64 {
	ones := uint64(0)
	var acc uint64
	j := 0
	for len(idx)-j >= 64 {
		acc = 0
		for s := 0; s < 64; s++ {
			p := idx[j+s]
			if p >= n {
				panicRange(p, n)
			}
			acc |= ((src[p>>6] >> (p & 63)) & 1) << uint(s)
		}
		ones += uint64(bits.OnesCount64(acc ^ ows[j>>6]))
		j += 64
	}
	if j < len(idx) {
		acc = 0
		for s := 0; j+s < len(idx); s++ {
			p := idx[j+s]
			if p >= n {
				panicRange(p, n)
			}
			acc |= ((src[p>>6] >> (p & 63)) & 1) << uint(s)
		}
		ones += uint64(bits.OnesCount64(acc ^ ows[j>>6]))
	}
	return ones
}

// gatherXorCountBlocked is the blocked fused gather-and-compare. Semantics
// identical to gatherXorCountRef.
func gatherXorCountBlocked(src []uint64, n uint64, idx []uint64, ows []uint64) uint64 {
	blocks, ones := gatherVec(nil, ows, src, n, idx)
	j := blocks * 64
	for ; j+64 <= len(idx); j += 64 {
		blk := (*[64]uint64)(idx[j:])
		var a0, a1, a2, a3 uint64
		for s := 0; s < 64; s += 4 {
			p0, p1, p2, p3 := blk[s], blk[s+1], blk[s+2], blk[s+3]
			if p0 >= n || p1 >= n || p2 >= n || p3 >= n {
				gatherCheck4(p0, p1, p2, p3, n)
			}
			a0 |= ((src[p0>>6] >> (p0 & 63)) & 1) << uint(s)
			a1 |= ((src[p1>>6] >> (p1 & 63)) & 1) << uint(s+1)
			a2 |= ((src[p2>>6] >> (p2 & 63)) & 1) << uint(s+2)
			a3 |= ((src[p3>>6] >> (p3 & 63)) & 1) << uint(s+3)
		}
		acc := (a0 | a1) | (a2 | a3)
		ones += uint64(bits.OnesCount64(acc ^ ows[j>>6]))
	}
	if j < len(idx) {
		var acc uint64
		for s := 0; j+s < len(idx); s++ {
			p := idx[j+s]
			if p >= n {
				panicRange(p, n)
			}
			acc |= ((src[p>>6] >> (p & 63)) & 1) << uint(s)
		}
		ones += uint64(bits.OnesCount64(acc ^ ows[j>>6]))
	}
	return ones
}

// xorCountWordsRef is the reference XOR-popcount over two equal-length
// word slices, and the Go loop of the dispatched kernel. It reads both
// operands sequentially, one POPCNT a word, but is bound by the latency of
// that chain: 100 words take 102–165 ns on a 2-vCPU Xeon, and four
// accumulators in Go were no faster (125–164 ns), so they are not kept. The
// lever is AVX512_VPOPCNTDQ's eight-word step (kernels_amd64.s): 24–33 ns.
func xorCountWordsRef(a, b []uint64) uint64 {
	ones := uint64(0)
	for i, w := range a {
		ones += uint64(bits.OnesCount64(w ^ b[i]))
	}
	return ones
}
