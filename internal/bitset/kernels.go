// Compare kernels: the inner loops behind Gather, GatherXorCount, and
// XorCountWords, one Go loop each.
//
// The gather loop works in 64-index blocks through fixed-size array
// pointers (one bounds check a block), four probe chains a step, the
// output word built in registers (a per-bit read-modify-write would
// serialize 64 probes). It is bound by its instructions, not the array's
// misses, so with AVX-512 an assembly body (kernels_amd64.s) takes each
// whole block up to the first with an index ≥ n, eight probes a gather;
// the Go loop takes the rest, that block included, so an out-of-range
// index panics from Go with the first bad index in idx order.
//
// The word-against-word XOR-popcount reads both operands sequentially;
// with AVX512_VPOPCNTDQ an assembly body takes its first len &^ 7 words.
//
// Without the CPU flags, on another target, or under -tags purego the Go
// loops run alone. kernels_test.go holds both bodies to a per-bit
// reference (results AND panics) on random and adversarial patterns.

package bitset

import (
	"fmt"
	"math/bits"
)

// panicRange reports an out-of-range index, for Bitset.check and the gather
// alike.
func panicRange(i, n uint64) {
	panic(fmt.Sprintf("bitset: index %d out of range [0, %d)", i, n))
}

// gatherXor gathers src's bits at idx into packed words and returns the
// sum over blocks of popcount(w ^ ows[b]), the assembly body's contract:
// block b's word w goes to dst[b] unless dst is nil. Each block is counted
// before it is stored, so dst may be ows itself, zeroed, and the plain
// gather counts its 1-bits. Tail bits of ows past len(idx) must be zero.
func gatherXor(dst, ows, src []uint64, n uint64, idx []uint64) uint64 {
	blocks, ones := gatherVec(dst, ows, src, n, idx)
	for j := blocks * 64; j < len(idx); j += 64 {
		var acc uint64
		if len(idx)-j >= 64 {
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
			acc = (a0 | a1) | (a2 | a3)
		} else {
			for s, p := range idx[j:] {
				if p >= n {
					panicRange(p, n)
				}
				acc |= ((src[p>>6] >> (p & 63)) & 1) << uint(s)
			}
		}
		ones += uint64(bits.OnesCount64(acc ^ ows[j>>6]))
		if dst != nil {
			dst[j>>6] = acc
		}
	}
	return ones
}

// gatherCheck4 panics for the first out-of-range index among four, in
// index order.
func gatherCheck4(p0, p1, p2, p3, n uint64) {
	for _, p := range [4]uint64{p0, p1, p2, p3} {
		if p >= n {
			panicRange(p, n)
		}
	}
}

// xorCountWords counts the differing bits of two equal-length word
// slices. Its Go loop, one POPCNT a word, is bound by the latency of that
// chain: 100 words take 102–165 ns on a 2-vCPU Xeon, and four accumulators
// in Go were no faster (125–164 ns), so they are not kept. The lever is
// AVX512_VPOPCNTDQ's eight-word step (kernels_amd64.s): 24–33 ns.
func xorCountWords(a, b []uint64) uint64 {
	words, ones := xorCountVec(a, b)
	a, b = a[words:], b[words:]
	for i, w := range a {
		ones += uint64(bits.OnesCount64(w ^ b[i]))
	}
	return ones
}
