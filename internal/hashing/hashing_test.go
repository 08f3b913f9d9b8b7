package hashing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/vossketch/vos/internal/cpu"
)

func TestSplitMix64Deterministic(t *testing.T) {
	s1, s2 := uint64(42), uint64(42)
	for i := 0; i < 100; i++ {
		a, b := SplitMix64(&s1), SplitMix64(&s2)
		if a != b {
			t.Fatalf("step %d: identical states diverged: %x vs %x", i, a, b)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs of splitmix64 seeded with 1234567 (from the public
	// domain reference implementation by Sebastiano Vigna).
	state := uint64(1234567)
	want := []uint64{
		0x599ed017fb08fc85,
		0x2c73f08458540fa5,
		0x883ebce5a3f27c77,
		0x3fbef740e9177b3f,
		0xe3b8346708cb5ecd,
	}
	for i, w := range want {
		if got := SplitMix64(&state); got != w {
			t.Errorf("output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// A bijection restricted to a small sample must have no collisions.
	seen := make(map[uint64]uint64)
	for x := uint64(0); x < 10000; x++ {
		y := Mix64(x)
		if prev, ok := seen[y]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %#x", prev, x, y)
		}
		seen[y] = x
	}
}

func TestHash64SeedIndependence(t *testing.T) {
	// Different seeds must produce (nearly) uncorrelated functions; check
	// that the agreement rate on low bits is close to 1/2.
	agree := 0
	const n = 20000
	for x := uint64(0); x < n; x++ {
		if Hash64(x, 1)&1 == Hash64(x, 2)&1 {
			agree++
		}
	}
	frac := float64(agree) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("low-bit agreement between seeds = %.4f, want ~0.5", frac)
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~32 of 64 output bits on average.
	var totalFlips, samples int
	for x := uint64(0); x < 2000; x++ {
		h := Hash64(x, 99)
		for b := uint(0); b < 64; b += 7 {
			h2 := Hash64(x^(1<<b), 99)
			totalFlips += popcount(h ^ h2)
			samples++
		}
	}
	avg := float64(totalFlips) / float64(samples)
	if avg < 28 || avg > 36 {
		t.Errorf("avalanche average = %.2f output bits flipped, want ~32", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestHashStringDistinct(t *testing.T) {
	if HashString("abc", 1) == HashString("abd", 1) {
		t.Error("trivially distinct strings collided")
	}
	if HashString("abc", 1) == HashString("abc", 2) {
		t.Error("same string under different seeds should differ")
	}
}

func TestReduceRange(t *testing.T) {
	err := quick.Check(func(h uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		return Reduce(h, n) < n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestReduceUniform(t *testing.T) {
	// Chi-square over 16 buckets; hash a consecutive key range.
	const buckets = 16
	const n = 64000
	var counts [buckets]int
	for x := uint64(0); x < n; x++ {
		counts[HashToRange(x, 5, buckets)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom; 99.9th percentile is ~37.7.
	if chi2 > 37.7 {
		t.Errorf("chi-square = %.1f over %d buckets, too non-uniform", chi2, buckets)
	}
}

func TestFloat01Range(t *testing.T) {
	err := quick.Check(func(h uint64) bool {
		f := Float01(h)
		return f >= 0 && f < 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
	if Float01(0) != 0 {
		t.Errorf("Float01(0) = %v, want 0", Float01(0))
	}
}

func TestFamilyMembersDiffer(t *testing.T) {
	f := NewFamily(8, 77)
	if len(f.seeds) != 8 {
		t.Fatalf("%d members, want 8", len(f.seeds))
	}
	for j := 1; j < len(f.seeds); j++ {
		same := 0
		for x := uint64(0); x < 1000; x++ {
			if f.Hash(0, x) == f.Hash(j, x) {
				same++
			}
		}
		if same > 0 {
			t.Errorf("members 0 and %d agree on %d/1000 64-bit outputs", j, same)
		}
	}
}

func TestFamilyDeterministicAcrossConstructions(t *testing.T) {
	a := NewFamily(4, 123)
	b := NewFamily(4, 123)
	for j := 0; j < 4; j++ {
		for x := uint64(0); x < 100; x++ {
			if a.Hash(j, x) != b.Hash(j, x) {
				t.Fatalf("family member %d not reproducible", j)
			}
		}
	}
}

func TestFamilyHashRange(t *testing.T) {
	f := NewFamily(3, 9)
	for j := 0; j < 3; j++ {
		for x := uint64(0); x < 1000; x++ {
			if v := f.HashRange(j, x, 10); v >= 10 {
				t.Fatalf("HashRange out of range: %d", v)
			}
		}
	}
}

func TestFamilyPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFamily(0, …) should panic")
		}
	}()
	NewFamily(0, 1)
}

func TestTwoUniversalFieldClosed(t *testing.T) {
	tu := NewTwoUniversal(321)
	err := quick.Check(func(x uint64) bool {
		return tu.Hash(x) < MersennePrime61
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestTwoUniversalLinearity(t *testing.T) {
	// h(x) = a*x + b mod p, so h(x) - h(0) = a*x mod p and consequently
	// h(2x) - h(0) = 2*(h(x) - h(0)) mod p for x in the field.
	tu := NewTwoUniversal(5)
	h0 := tu.Hash(0)
	for x := uint64(1); x < 1000; x++ {
		hx := tu.Hash(x)
		h2x := tu.Hash(2 * x)
		lhs := mod61Add(h2x, MersennePrime61-h0) // h(2x) - h(0)
		rhs := mod61Add(hx, MersennePrime61-h0)  // h(x) - h(0)
		rhs = mod61Add(rhs, rhs)                 // doubled
		if lhs != rhs {
			t.Fatalf("linearity violated at x=%d: %d vs %d", x, lhs, rhs)
		}
	}
}

func TestTwoUniversalPairwiseCollisions(t *testing.T) {
	// Over many seeds, P(h(x) mod 64 == h(y) mod 64) should be ~1/64 for
	// fixed x != y (pairwise independence).
	const trials = 8000
	collide := 0
	for s := uint64(0); s < trials; s++ {
		tu := NewTwoUniversal(s)
		if tu.HashRange(17, 64) == tu.HashRange(90001, 64) {
			collide++
		}
	}
	frac := float64(collide) / trials
	if math.Abs(frac-1.0/64) > 0.01 {
		t.Errorf("pairwise collision rate = %.4f, want ~%.4f", frac, 1.0/64)
	}
}

func TestMulMod61AgainstBigIntStyle(t *testing.T) {
	// Verify the 128-bit folding against naive double-and-add arithmetic.
	naive := func(a, b uint64) uint64 {
		r := uint64(0)
		a = mod61(a)
		b = mod61(b)
		for b > 0 {
			if b&1 == 1 {
				r = mod61Add(r, a)
			}
			a = mod61Add(a, a)
			b >>= 1
		}
		return r
	}
	cases := [][2]uint64{
		{0, 0}, {1, 1}, {MersennePrime61 - 1, MersennePrime61 - 1},
		{123456789, 987654321}, {1 << 60, 1 << 60}, {MersennePrime61 - 1, 2},
	}
	for _, c := range cases {
		if got, want := mulMod61(c[0], c[1]), naive(c[0], c[1]); got != want {
			t.Errorf("mulMod61(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
	err := quick.Check(func(a, b uint64) bool {
		a = mod61(a)
		b = mod61(b)
		return mulMod61(a, b) == naive(a, b)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// bothFills runs fn on the dispatched fill, then with the AVX-512 body
// switched off, so the Go loop is held to the same reference where the
// assembly would otherwise take every full group of eight.
func bothFills(t *testing.T, fn func(t *testing.T)) {
	t.Run("dispatched", fn)
	saved := cpu.AVX512
	cpu.AVX512 = false
	defer func() { cpu.AVX512 = saved }()
	t.Run("go", fn)
}

// Every length around the eight-member groups, every reduction the vector
// body takes (a shift for powers of two, two 32-bit products below 2³²) and
// the ones it leaves to the Go loop (2³²+7), against per-member HashRange.
func TestHashRangeIntoMatchesHashRange(t *testing.T) {
	f := NewFamily(6403, 42)
	rng := rand.New(rand.NewSource(3))
	keys := []uint64{0, ^uint64(0)}
	for len(keys) < 202 {
		keys = append(keys, rng.Uint64())
	}
	bothFills(t, func(t *testing.T) {
		for _, n := range []uint64{1, 2, 3, 1 << 20, 1 << 21, 2048000, 1<<32 - 1, 1 << 32, 1<<32 + 7, 1 << 63} {
			for _, key := range keys {
				for _, k := range []int{1, 7, 8, 9, 63, 64, 6400, 6403} {
					checkHashRangeInto(t, f, k, key, n)
				}
			}
		}
	})
}

// FuzzHashRangeInto: any key, seed and k up to 6,403, and n below 2³³ —
// every reduction the vector body takes and the wide ones it leaves to the
// Go loop — both bodies against per-member HashRange.
func FuzzHashRangeInto(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(2048000), uint16(6400), false)
	f.Add(^uint64(0), uint64(42), uint64(24), uint16(6403), true)
	f.Add(uint64(7), uint64(3), uint64(1<<32+7), uint16(9), false)
	f.Fuzz(func(t *testing.T, key, seed, n uint64, k uint16, pow2 bool) {
		n %= 1 << 33
		if pow2 {
			n = 1 << (n % 33)
		}
		fam := NewFamily(int(k)%6403+1, seed)
		bothFills(t, func(t *testing.T) {
			checkHashRangeInto(t, fam, len(fam.seeds), key, max(n, 1))
		})
	})
}

// checkHashRangeInto holds HashRangeInto of f's first k members to
// HashRange, member by member.
func checkHashRangeInto(t *testing.T, f *Family, k int, key, n uint64) {
	t.Helper()
	dst := make([]uint64, k)
	f.HashRangeInto(dst, key, n)
	for j, got := range dst {
		if want := f.HashRange(j, key, n); got != want {
			t.Fatalf("HashRangeInto k=%d n=%d key=%#x member %d = %d, want %d", k, n, key, j, got, want)
		}
	}
}

// benchSink keeps benchmark results live, so the compiler cannot delete
// the measured work.
var benchSink uint64

func BenchmarkHashRangePerMember(b *testing.B) {
	f := NewFamily(6400, 1)
	dst := make([]uint64, 6400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = f.HashRange(j, uint64(i), 1<<24)
		}
		benchSink += dst[i&4095]
	}
}

// BenchmarkHashRangeInto times one cold read's fill, k = 6,400, at a power
// of two (the shift) and at m = 2,048,000 (REDUCE32, the m of http-durable
// and cluster-gather).
func BenchmarkHashRangeInto(b *testing.B) {
	f := NewFamily(6400, 1)
	dst := make([]uint64, 6400)
	for _, n := range []uint64{1 << 24, 2048000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.HashRangeInto(dst, uint64(i), n)
				benchSink += dst[i&4095]
			}
		})
	}
}

// checkEdgePositions holds both families' EdgePositions over pairs — stride
// three like stream.Edge, the third word noise — to the scalar position of
// each pair, and the length they fill to the dispatch rule: every whole
// group of eight where the vector body runs and the family reduces m
// exactly, nothing otherwise.
func checkEdgePositions(t *testing.T, k int, seed, psiSeed, m uint64, pairs []uint64) {
	t.Helper()
	const stride = 3
	n := len(pairs) / stride
	classic, fast := NewFamily(k, seed), NewFastFamily(k, seed)
	for _, fam := range []struct {
		name  string
		fill  func(dst, pairs []uint64, stride int, psiSeed, m uint64) int
		exact bool
		hash  func(j int, key, n uint64) uint64
	}{
		{"classic", classic.EdgePositions, m&(m-1) == 0 || m < 1<<32, classic.HashRange},
		{"fast", fast.EdgePositions, m <= 1<<32, fast.HashRange},
	} {
		dst := make([]uint64, n)
		want := 0
		if cpu.AVX512 && fam.exact {
			want = n &^ 7
		}
		if got := fam.fill(dst, pairs, stride, psiSeed, m); got != want {
			t.Fatalf("%s m=%d k=%d n=%d: EdgePositions filled %d, want %d", fam.name, m, k, n, got, want)
		}
		for i, got := range dst[:want] {
			user, item := pairs[i*stride], pairs[i*stride+1]
			if w := fam.hash(int(HashToRange(item, psiSeed, uint64(k))), user, m); got != w {
				t.Fatalf("%s m=%d k=%d pair %d (%#x, %#x) = %d, want %d", fam.name, m, k, i, user, item, got, w)
			}
		}
	}
}

// Every block length around the groups of eight up to ProcessBatch's 256,
// every reduction each family's vector body takes and one it leaves to the
// Go loop (2³²+7; 2⁶³ too for the fast family), extreme keys and random
// ones, against the scalar formula.
func TestEdgePositionsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pool []uint64
	for _, user := range []uint64{0, 1<<63 - 1, ^uint64(0)} {
		for _, item := range []uint64{0, ^uint64(0)} {
			pool = append(pool, user, item, rng.Uint64())
		}
	}
	for range 200 {
		pool = append(pool, rng.Uint64(), rng.Uint64(), rng.Uint64())
	}
	shapes := []struct {
		m uint64
		k int
	}{{1 << 21, 6400}, {2048000, 6400}, {1 << 20, 1600}, {1 << 32, 64}, {1<<32 + 7, 64}, {1 << 63, 8}, {3, 1}}
	bothFills(t, func(t *testing.T) {
		for _, sh := range shapes {
			for _, n := range []int{1, 7, 8, 9, 255, 256} {
				// Blocks of n pairs, wrapping round the pool, until each pair
				// has been in one.
				for start := 0; start < len(pool)/3; start += n {
					pairs := make([]uint64, 0, 3*n)
					for i := range n {
						p := (start + i) % (len(pool) / 3) * 3
						pairs = append(pairs, pool[p:p+3]...)
					}
					checkEdgePositions(t, sh.k, 42, 0x5f4dcc3b5aa765d6^42, sh.m, pairs)
				}
			}
		}
	})
}

// FuzzEdgePositions: any m, k, seeds and pairs, both families, against the
// scalar formula.
func FuzzEdgePositions(f *testing.F) {
	f.Add(uint64(1<<21), uint16(6399), uint64(1), uint64(2), int64(3), uint16(256), false)
	f.Add(uint64(1<<20), uint16(1599), uint64(1), uint64(2), int64(3), uint16(17), false)
	f.Add(uint64(20), uint16(0), uint64(0), uint64(0), int64(0), uint16(8), true)
	f.Fuzz(func(t *testing.T, m uint64, k uint16, seed, psiSeed uint64, pairSeed int64, n uint16, pow2 bool) {
		if pow2 {
			m = 1 << (m % 64)
		}
		rng := rand.New(rand.NewSource(pairSeed))
		pairs := make([]uint64, 3*int(n%300))
		for i := range pairs {
			pairs[i] = rng.Uint64()
		}
		checkEdgePositions(t, int(k)+1, seed, psiSeed, max(m, 1), pairs)
	})
}
