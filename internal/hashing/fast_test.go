package hashing

import (
	"math"
	"testing"
)

func TestKindStringParseRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindClassic, KindFast} {
		if !k.Valid() {
			t.Fatalf("Kind %d not valid", k)
		}
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
		// The text form (what JSON surfaces carry) is the same name.
		text, _ := k.MarshalText()
		var back Kind
		if err := back.UnmarshalText(text); err != nil || back != k || string(text) != k.String() {
			t.Fatalf("text round trip of %v: %q → %v, %v", k, text, back, err)
		}
	}
	if err := new(Kind).UnmarshalText([]byte("md5")); err == nil {
		t.Fatal("UnmarshalText accepted an unknown family name")
	}
	if _, err := ParseKind("md5"); err == nil {
		t.Fatal("ParseKind accepted an unknown family name")
	}
	if _, err := ParseKind(""); err == nil {
		t.Fatal("ParseKind accepted the empty string")
	}
	if Kind(7).Valid() {
		t.Fatal("Kind(7) reported valid")
	}
	if Kind(7).String() == "" {
		t.Fatal("unknown Kind must still stringify for error messages")
	}
}

func TestNewFastFamilyPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFastFamily(0, ...) did not panic")
		}
	}()
	NewFastFamily(0, 1)
}

// HashRangeInto must be the batched equal of HashRange at every index —
// this equality is what makes the batched fill safe to substitute on the
// hot path, and it must hold across the 32-bit paired mode, the wide mode,
// odd lengths (tail handling), and length-1 fills.
func TestFastHashRangeIntoMatchesHashRange(t *testing.T) {
	ns := []uint64{1, 2, 5, 64, 1 << 20, 1 << 24, 1 << 32, 1<<32 + 1, 1 << 40}
	ks := []int{1, 2, 3, 4, 5, 7, 8, 63, 64, 100, 6400}
	for _, n := range ns {
		for _, k := range ks {
			f := NewFastFamily(k, 0xfeed)
			dst := make([]uint64, k)
			for _, key := range []uint64{0, 1, 42, 1 << 63, 0xffffffffffffffff} {
				f.HashRangeInto(dst, key, n)
				for j := 0; j < k; j++ {
					if got, want := dst[j], f.HashRange(j, key, n); got != want {
						t.Fatalf("n=%d k=%d key=%d j=%d: batched %d != single %d", n, k, key, j, got, want)
					}
					if dst[j] >= n {
						t.Fatalf("n=%d k=%d key=%d j=%d: position %d out of range", n, k, key, j, dst[j])
					}
				}
			}
		}
	}
}

// Shorter fills must be prefixes of longer ones (poscache hands out
// variable-length prefixes of the same table).
func TestFastHashRangeIntoPrefixStable(t *testing.T) {
	f := NewFastFamily(100, 7)
	full := make([]uint64, 100)
	f.HashRangeInto(full, 99, 1<<24)
	for _, l := range []int{1, 2, 3, 50, 99} {
		part := make([]uint64, l)
		f.HashRangeInto(part, 99, 1<<24)
		for j := range part {
			if part[j] != full[j] {
				t.Fatalf("len=%d j=%d: prefix %d != full %d", l, j, part[j], full[j])
			}
		}
	}
}

// Positions must be uniform over [0, n): bucket the positions of many keys
// and check the worst bucket deviation against the Poisson standard
// deviation. Seeds are fixed, so the test is deterministic.
func TestFastFamilyUniformity(t *testing.T) {
	const (
		k       = 640
		keys    = 2000
		buckets = 1 << 10
	)
	f := NewFastFamily(k, 0xabcdef)
	counts := make([]int, buckets)
	dst := make([]uint64, k)
	for key := uint64(0); key < keys; key++ {
		f.HashRangeInto(dst, key, buckets)
		for _, p := range dst {
			counts[p]++
		}
	}
	mean := float64(k*keys) / buckets
	sigma := math.Sqrt(mean)
	for b, c := range counts {
		if dev := math.Abs(float64(c) - mean); dev > 6*sigma {
			t.Fatalf("bucket %d: count %d deviates %.1fσ from mean %.1f", b, c, dev/sigma, mean)
		}
	}
}

// Wide mode (n > 2^32) must be uniform too; bucket by high bits so the
// test exercises the full 64-bit reduction.
func TestFastFamilyUniformityWide(t *testing.T) {
	const (
		k       = 640
		keys    = 1000
		buckets = 1 << 8
	)
	n := uint64(1) << 40
	f := NewFastFamily(k, 0x1234)
	counts := make([]int, buckets)
	dst := make([]uint64, k)
	for key := uint64(0); key < keys; key++ {
		f.HashRangeInto(dst, key, n)
		for _, p := range dst {
			counts[p/(n/buckets)]++
		}
	}
	mean := float64(k*keys) / buckets
	sigma := math.Sqrt(mean)
	for b, c := range counts {
		if dev := math.Abs(float64(c) - mean); dev > 6*sigma {
			t.Fatalf("bucket %d: count %d deviates %.1fσ from mean %.1f", b, c, dev/sigma, mean)
		}
	}
}

// Two distinct keys must collide on position j at rate ≈ 1/n — the
// pairwise-independence property VOS's contamination model assumes. The
// paired 32-bit halves are the risk here (two positions share one 64-bit
// output), so check adjacent indices explicitly.
func TestFastFamilyPairwiseCollisions(t *testing.T) {
	const (
		k    = 64
		n    = 256
		keys = 4000
	)
	f := NewFastFamily(k, 0x777)
	a := make([]uint64, k)
	b := make([]uint64, k)
	collisions, samples := 0, 0
	adjEqual := 0
	for key := uint64(0); key < keys; key++ {
		f.HashRangeInto(a, key, n)
		f.HashRangeInto(b, key+keys, n)
		for j := 0; j < k; j++ {
			if a[j] == b[j] {
				collisions++
			}
			samples++
		}
		// Within one key, adjacent positions come from halves of the same
		// 64-bit output; they must still look independent.
		for j := 0; j+1 < k; j += 2 {
			if a[j] == a[j+1] {
				adjEqual++
			}
		}
	}
	rate := float64(collisions) / float64(samples)
	want := 1.0 / n
	sigma := math.Sqrt(want * (1 - want) / float64(samples))
	if math.Abs(rate-want) > 6*sigma {
		t.Errorf("cross-key collision rate %.5f, want %.5f ± %.5f", rate, want, 6*sigma)
	}
	adjRate := float64(adjEqual) / float64(keys*k/2)
	adjSigma := math.Sqrt(want * (1 - want) / float64(keys*k/2))
	if math.Abs(adjRate-want) > 6*adjSigma {
		t.Errorf("adjacent-position collision rate %.5f, want %.5f ± %.5f", adjRate, want, 6*adjSigma)
	}
}

// The fast family must be unrelated to the classic family under the same
// seed: agreement at the same (j, key) should be the 1/n chance rate, not
// elevated.
func TestFastFamilyIndependentOfClassic(t *testing.T) {
	const (
		k    = 64
		n    = 256
		keys = 4000
	)
	fast := NewFastFamily(k, 99)
	classic := NewFamily(k, 99)
	a := make([]uint64, k)
	b := make([]uint64, k)
	agree, samples := 0, 0
	for key := uint64(0); key < keys; key++ {
		fast.HashRangeInto(a, key, n)
		classic.HashRangeInto(b, key, n)
		for j := 0; j < k; j++ {
			if a[j] == b[j] {
				agree++
			}
			samples++
		}
	}
	rate := float64(agree) / float64(samples)
	want := 1.0 / n
	sigma := math.Sqrt(want * (1 - want) / float64(samples))
	if math.Abs(rate-want) > 6*sigma {
		t.Errorf("classic/fast agreement rate %.5f, want chance %.5f ± %.5f", rate, want, 6*sigma)
	}
}

// BenchmarkHashRangeIntoFast is the fast-family counterpart of
// BenchmarkHashRangeInto (hashing_test.go) — same k, range, and sink.
func BenchmarkHashRangeIntoFast(b *testing.B) {
	f := NewFastFamily(6400, 1)
	dst := make([]uint64, 6400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.HashRangeInto(dst, uint64(i), 1<<24)
		benchSink += dst[i&4095]
	}
}
