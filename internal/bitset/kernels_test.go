package bitset

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/vossketch/vos/internal/cpu"
	"github.com/vossketch/vos/internal/hashing"
)

// fillPattern materialises one named adversarial word pattern into b.
func fillPattern(b *Bitset, name string, rng *rand.Rand) {
	switch name {
	case "zero":
		// leave all bits clear
	case "ones":
		for i := uint64(0); i < b.Len(); i++ {
			b.Set(i)
		}
	case "alternating":
		for i := uint64(0); i < b.Len(); i += 2 {
			b.Set(i)
		}
	case "tail-only":
		// only bits in the final (possibly partial) word
		for i := b.Len() &^ 63; i < b.Len(); i++ {
			b.Set(i)
		}
	case "random":
		for i := uint64(0); i < b.Len(); i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
	default:
		panic("unknown pattern " + name)
	}
}

var kernelPatterns = []string{"zero", "ones", "alternating", "tail-only", "random"}

// Index shapes: random probes, duplicate-heavy probes, boundary probes
// (first and last bit), and a sequential sweep. Sizes cross the 64-block
// boundary both exactly and with tails.
func kernelIndexSets(n uint64, size int, rng *rand.Rand) map[string][]uint64 {
	random := make([]uint64, size)
	for i := range random {
		random[i] = uint64(rng.Int63n(int64(n)))
	}
	dup := make([]uint64, size)
	for i := range dup {
		dup[i] = uint64(i%3) * (n - 1) / 2
	}
	boundary := make([]uint64, size)
	for i := range boundary {
		if i%2 == 0 {
			boundary[i] = 0
		} else {
			boundary[i] = n - 1
		}
	}
	seq := make([]uint64, size)
	for i := range seq {
		seq[i] = uint64(i) % n
	}
	return map[string][]uint64{"random": random, "dup": dup, "boundary": boundary, "seq": seq}
}

// gatherRef is the tests' oracle for Gather: one index, one probe, one
// Set per bit, the ones count maintained by Set.
func gatherRef(b *Bitset, idx []uint64) *Bitset {
	out := New(uint64(len(idx)))
	for j, p := range idx {
		if b.Get(p) {
			out.Set(uint64(j))
		}
	}
	return out
}

// gatherXorCountRef is the oracle for GatherXorCount: the positions j
// where b's bit idx[j] differs from o's bit j, counted one at a time.
func gatherXorCountRef(b *Bitset, idx []uint64, o *Bitset) uint64 {
	ones := uint64(0)
	for j, p := range idx {
		ones += b.GetBit(p) ^ o.GetBit(uint64(j))
	}
	return ones
}

// xorCountWordsRef is the oracle for XorCountWords: each differing bit
// cleared and counted in turn, no popcount instruction.
func xorCountWordsRef(a, b []uint64) uint64 {
	ones := uint64(0)
	for i, w := range a {
		for x := w ^ b[i]; x != 0; x &= x - 1 {
			ones++
		}
	}
	return ones
}

// Gather and GatherXorCount must agree with their per-bit oracles bit for
// bit on every pattern × index-shape × size, including the maintained ones
// counts — up to the benchmark's arrays (2²¹ and 2,048,000 bits) and its
// 6,400-index sketches.
func TestKernelEquivalence(t *testing.T) {
	check := func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		sizes := []int{1, 3, 63, 64, 65, 127, 128, 200, 6400}
		for _, nBits := range []uint64{64, 1000, 1 << 16, 1 << 21, 2048000} {
			src := New(nBits)
			for _, pat := range kernelPatterns {
				src.Reset()
				fillPattern(src, pat, rng)
				for _, size := range sizes {
					for shape, idx := range kernelIndexSets(nBits, size, rng) {
						got, want := src.Gather(idx), gatherRef(src, idx)
						if !got.Equal(want) || got.Count() != want.Count() {
							t.Fatalf("gather mismatch: n=%d pat=%s shape=%s size=%d", nBits, pat, shape, size)
						}

						other := New(uint64(size))
						fillPattern(other, kernelPatterns[size%len(kernelPatterns)], rng)
						if got, want := src.GatherXorCount(idx, other), gatherXorCountRef(src, idx, other); got != want {
							t.Fatalf("gatherxor mismatch: n=%d pat=%s shape=%s size=%d: %d != %d",
								nBits, pat, shape, size, got, want)
						}
					}
				}
			}
		}
	}
	t.Run("dispatched", check)
	defer cpu.GoLoopsOnly()()
	t.Run("go", check)
}

// The XOR-popcount must equal its oracle on both sides of
// the vector body's eight-word step: word counts 1, 2, 4, 7, 8, 9, 15, 16,
// 17, 25 (k = 1,600) and 100 (k = 6,400), partial last words included.
func TestXorCountWordsKernelEquivalence(t *testing.T) {
	check := func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, nBits := range []uint64{1, 63, 64, 65, 256, 420, 512, 545, 960, 1024, 1030, 1600, 6400} {
			for _, patA := range kernelPatterns {
				for _, patB := range kernelPatterns {
					a := New(nBits)
					b := New(nBits)
					fillPattern(a, patA, rng)
					fillPattern(b, patB, rng)
					want := xorCountWordsRef(a.UnsafeWords(), b.UnsafeWords())
					if got := a.XorCountWords(b.UnsafeWords()); got != want {
						t.Fatalf("n=%d %s^%s: kernel %d != ref %d", nBits, patA, patB, got, want)
					}
					if want != a.XorCount(b) {
						t.Fatalf("n=%d %s^%s: XorCount disagrees with words path", nBits, patA, patB)
					}
				}
			}
		}
	}
	t.Run("dispatched", check)
	defer cpu.GoLoopsOnly()()
	t.Run("go", check)
}

// FuzzXorCountWords holds the dispatched XOR-popcount to its oracle on
// 0–300 random words at any word offset, b sharing a's words except where
// flips says, so counts near zero are reached as well as near half.
func FuzzXorCountWords(f *testing.F) {
	f.Add(uint16(0), uint8(0), uint64(1), uint64(0))
	f.Add(uint16(25), uint8(3), uint64(2), ^uint64(0))
	f.Add(uint16(100), uint8(0), uint64(3), uint64(1<<40))
	f.Add(uint16(17), uint8(7), uint64(4), uint64(0x8000_0000_0000_0001))
	f.Fuzz(func(t *testing.T, n uint16, off uint8, seed, flips uint64) {
		words, at := int(n)%301, int(off)%8
		rng := rand.New(rand.NewSource(int64(seed)))
		a, b := make([]uint64, at+words), make([]uint64, at+words)
		for i := range a {
			a[i] = rng.Uint64()
			if b[i] = a[i]; flips>>(uint(i)%64)&1 == 1 {
				b[i] = rng.Uint64()
			}
		}
		a, b = a[at:], b[at:]
		if got, want := xorCountWords(a, b), xorCountWordsRef(a, b); got != want {
			t.Fatalf("%d words at offset %d: dispatched %d, oracle %d", words, at, got, want)
		}
	})
}

// Out-of-range indices must panic with Bitset.check's message from both
// kernels, at every offset within a block (the Go loop checks four at a
// time, the vector body a whole block, and both must still report the
// first bad index) — whether the bad block is the first or follows blocks
// the vector body completed, and whether the later bad indices of the
// block lie inside the array's last word or far past its end.
func TestKernelRangePanics(t *testing.T) {
	check := func(t *testing.T) {
		src := New(100)
		for _, blocks := range []int{1, 3} {
			for _, badAt := range []int{0, 1, 2, 3, 31, 62, 63} {
				idx := make([]uint64, 64*blocks)
				at := 64*(blocks-1) + badAt
				idx[at] = 100 // == n, the first index out of range
				for i, later := range []uint64{127, 1 << 40} {
					if at+1+i < len(idx) {
						idx[at+1+i] = later
					}
				}
				other := New(uint64(len(idx)))
				wantMsg := "bitset: index 100 out of range [0, 100)"
				for name, fn := range map[string]func(){
					"Gather":         func() { src.Gather(idx) },
					"GatherXorCount": func() { src.GatherXorCount(idx, other) },
				} {
					r := panicOf(fn)
					if msg, ok := r.(string); !ok || !strings.Contains(msg, wantMsg) {
						t.Fatalf("%s blocks=%d badAt=%d: panic %v, want %q", name, blocks, badAt, r, wantMsg)
					}
				}
			}
		}
	}
	t.Run("dispatched", check)
	defer cpu.GoLoopsOnly()()
	t.Run("go", check)
}

// panicOf runs fn and returns what it panicked with, nil if it returned.
func panicOf(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// FuzzKernels holds the dispatched fill, gather and gather-XOR-count to
// their oracles (HashRange, gatherRef, gatherXorCountRef): positions of
// a random key in a random range n, then the same key's positions in an
// array of at most 2²¹ bits gathered from random words — with one index
// pushed out of range when bad is odd, where the panics must agree.
func FuzzKernels(f *testing.F) {
	f.Add(uint64(1<<21), uint64(7), uint16(6399), uint16(0))
	f.Add(uint64(2048000), uint64(1), uint16(6402), uint16(1))
	f.Add(uint64(1<<32+7), ^uint64(0), uint16(8), uint16(3))
	f.Add(uint64(1<<63), uint64(0), uint16(63), uint16(127))
	fam := hashing.NewFamily(6403, 5)
	f.Fuzz(func(t *testing.T, n, key uint64, k, bad uint16) {
		pos := make([]uint64, int(k)%6403+1)
		fam.HashRangeInto(pos, key, n)
		for j, p := range pos {
			if want := fam.HashRange(j, key, n); p != want {
				t.Fatalf("n=%d key=%#x: HashRangeInto member %d = %d, HashRange %d", n, key, j, p, want)
			}
		}
		m := n%(1<<21) + 1
		fam.HashRangeInto(pos, key, m)
		if bad%2 == 1 {
			pos[int(bad/2)%len(pos)] = m + uint64(bad)
		}
		rng := rand.New(rand.NewSource(int64(key)))
		src, other := New(m), New(uint64(len(pos)))
		for _, b := range []*Bitset{src, other} {
			for i := range b.words {
				b.words[i] = rng.Uint64()
			}
			b.words[len(b.words)-1] &= ^uint64(0) >> (63 - (b.n-1)%64)
		}
		var got, want *Bitset
		if gp, wp := panicOf(func() { got = src.Gather(pos) }), panicOf(func() { want = gatherRef(src, pos) }); gp != wp {
			t.Fatalf("m=%d: Gather panicked with %v, gatherRef with %v", m, gp, wp)
		} else if wp == nil && (!got.Equal(want) || got.Count() != want.Count()) {
			t.Fatalf("m=%d key=%#x k=%d: Gather differs from gatherRef", m, key, len(pos))
		}
		var gx, wx uint64
		gp, wp := panicOf(func() { gx = src.GatherXorCount(pos, other) }), panicOf(func() { wx = gatherXorCountRef(src, pos, other) })
		if gp != wp || gx != wx {
			t.Fatalf("m=%d key=%#x k=%d: GatherXorCount %d (panic %v), gatherXorCountRef %d (panic %v)", m, key, len(pos), gx, gp, wx, wp)
		}
	})
}

// A short tail (under one block) with a bad index must also panic from the
// tail loop.
func TestKernelRangePanicsTail(t *testing.T) {
	src := New(50)
	idx := []uint64{1, 2, 50}
	for name, fn := range map[string]func(){
		"Gather":         func() { src.Gather(idx) },
		"GatherXorCount": func() { src.GatherXorCount(idx, New(3)) },
	} {
		if panicOf(fn) == nil {
			t.Fatalf("%s: no panic for tail out-of-range", name)
		}
	}
}

var benchOnes uint64

// BenchmarkGather times the gather and the gather-XOR-count over k = 6,400
// random probes into a 2 MiB array (the paper-scale compare shape), in ns a
// probe, dispatched and with the vector body off. The kernel is called
// directly, the gather into a reused word slice, so neither arm allocates.
func BenchmarkGather(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := New(1 << 24)
	for i := 0; i < 1<<20; i++ {
		src.Set(uint64(rng.Int63n(1 << 24)))
	}
	idx := make([]uint64, 6400)
	for i := range idx {
		idx[i] = uint64(rng.Int63n(1 << 24))
	}
	out, zero := make([]uint64, 100), make([]uint64, 100)
	o := New(6400)
	for _, kernel := range []string{"gather", "xorcount"} {
		for _, body := range []string{"dispatched", "go"} {
			b.Run(kernel+"/"+body, func(b *testing.B) {
				if body == "go" {
					defer cpu.GoLoopsOnly()()
				}
				dst, ows := out, zero
				if kernel == "xorcount" {
					dst, ows = nil, o.words
				}
				for i := 0; i < b.N; i++ {
					benchOnes += gatherXor(dst, ows, src.words, src.n, idx)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(idx)), "ns/probe")
			})
		}
	}
}

// BenchmarkXorCount times the word-against-word XOR-popcount at k = 1,600
// and 6,400 (25 and 100 words, a warm pair score's compare) and at 2¹⁶
// bits, dispatched and with the vector body off.
func BenchmarkXorCount(b *testing.B) {
	for _, body := range []string{"dispatched", "go"} {
		for _, words := range []int{25, 100, 1024} {
			b.Run(fmt.Sprintf("%s/words=%d", body, words), func(b *testing.B) {
				if body == "go" {
					defer cpu.GoLoopsOnly()()
				}
				rng := rand.New(rand.NewSource(1))
				x, y := New(uint64(64*words)), New(uint64(64*words))
				for i := range x.words {
					x.words[i], y.words[i] = rng.Uint64(), rng.Uint64()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchOnes += x.XorCount(y)
				}
			})
		}
	}
}
