package bitset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	b := New(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitset: len=%d count=%d", b.Len(), b.Count())
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 {
		t.Fatalf("count = %d, want 3", b.Count())
	}
	for _, i := range []uint64{0, 64, 129} {
		if !b.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
		if b.GetBit(i) != 1 {
			t.Errorf("GetBit(%d) = %d", i, b.GetBit(i))
		}
	}
	if b.Get(1) || b.GetBit(63) != 0 {
		t.Error("unset bits read as set")
	}
	// Idempotence of Set must not corrupt the count.
	b.Set(0)
	if b.Count() != 3 {
		t.Errorf("idempotent Set changed count to %d", b.Count())
	}
}

func TestFlip(t *testing.T) {
	b := New(100)
	if !b.Flip(42) {
		t.Error("flip of 0 should return true")
	}
	if b.Flip(42) {
		t.Error("flip of 1 should return false")
	}
	if b.Count() != 0 {
		t.Errorf("double flip left count %d", b.Count())
	}
}

func TestFlipTwiceIsIdentityProperty(t *testing.T) {
	err := quick.Check(func(idxs []uint64) bool {
		b := New(512)
		ref := New(512)
		for _, i := range idxs {
			i %= 512
			b.Flip(i)
			b.Flip(i)
		}
		return b.Equal(ref) && b.Count() == 0
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestCountMatchesNaiveProperty(t *testing.T) {
	err := quick.Check(func(ops []uint16) bool {
		const n = 300
		b := New(n)
		naive := make([]bool, n)
		for _, op := range ops {
			i := uint64(op) % n
			switch op % 2 {
			case 0:
				b.Set(i)
				naive[i] = true
			case 1:
				b.Flip(i)
				naive[i] = !naive[i]
			}
		}
		want := uint64(0)
		for i, v := range naive {
			if v != b.Get(uint64(i)) {
				return false
			}
			if v {
				want++
			}
		}
		return b.Count() == want
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestOnesFraction(t *testing.T) {
	b := New(1000)
	for i := uint64(0); i < 250; i++ {
		b.Set(i * 4)
	}
	if got := b.OnesFraction(); got != 0.25 {
		t.Errorf("OnesFraction = %v, want 0.25", got)
	}
}

func TestXor(t *testing.T) {
	a := New(200)
	b := New(200)
	a.Set(1)
	a.Set(100)
	b.Set(100)
	b.Set(199)
	a.Xor(b)
	if !a.Get(1) || a.Get(100) || !a.Get(199) {
		t.Error("xor content wrong")
	}
	if a.Count() != 2 {
		t.Errorf("xor count = %d, want 2", a.Count())
	}
}

func TestXorCountMatchesXor(t *testing.T) {
	err := quick.Check(func(xs, ys []uint16) bool {
		const n = 257
		a, b := New(n), New(n)
		for _, x := range xs {
			a.Flip(uint64(x) % n)
		}
		for _, y := range ys {
			b.Flip(uint64(y) % n)
		}
		want := a.XorCount(b)
		c := a.Clone()
		c.Xor(b)
		return c.Count() == want
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestSlideMatchesXor holds Slide to the three Xor steps it fuses: merged
// and base lose retired, and retired becomes the old merged ⊕ base, every
// ones count kept.
func TestSlideMatchesXor(t *testing.T) {
	err := quick.Check(func(ms, bs, rs []uint16) bool {
		const n = 257
		fill := func(xs []uint16) *Bitset {
			b := New(n)
			for _, x := range xs {
				b.Flip(uint64(x) % n)
			}
			return b
		}
		m, b, r := fill(ms), fill(bs), fill(rs)
		wantM, wantR := m.Clone(), m.Clone()
		wantM.Xor(r)
		wantR.Xor(b)
		Slide(m, b, r)
		same := func(got, want *Bitset) bool { return got.Equal(want) && got.Count() == want.Count() }
		return same(m, wantM) && same(b, wantM) && same(r, wantR)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestXorSelfIsZero(t *testing.T) {
	b := New(500)
	for i := uint64(0); i < 500; i += 3 {
		b.Set(i)
	}
	c := b.Clone()
	b.Xor(c)
	if b.Count() != 0 {
		t.Errorf("x ^ x has %d ones", b.Count())
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Set(5)
	c := a.Clone()
	c.Set(6)
	if a.Get(6) {
		t.Error("mutating clone affected original")
	}
	if !c.Get(5) {
		t.Error("clone lost bit")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(100), New(100)
	if !a.Equal(b) {
		t.Error("fresh equal-length bitsets should be equal")
	}
	a.Set(3)
	if a.Equal(b) {
		t.Error("different contents reported equal")
	}
	if a.Equal(New(101)) {
		t.Error("different lengths reported equal")
	}
}

func TestReset(t *testing.T) {
	b := New(128)
	for i := uint64(0); i < 128; i++ {
		b.Set(i)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Errorf("reset left %d ones", b.Count())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []uint64{1, 63, 64, 65, 1000} {
		b := New(n)
		for i := uint64(0); i < n; i++ {
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("n=%d: marshal: %v", n, err)
		}
		var got Bitset
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("n=%d: unmarshal: %v", n, err)
		}
		if !got.Equal(b) || got.Count() != b.Count() {
			t.Errorf("n=%d: round trip mismatch", n)
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	b := New(100)
	b.Set(7)
	data, _ := b.MarshalBinary()

	cases := map[string]func() []byte{
		"truncated":    func() []byte { return data[:8] },
		"bad magic":    func() []byte { d := append([]byte(nil), data...); d[0] ^= 0xff; return d },
		"short body":   func() []byte { return data[:len(data)-1] },
		"long body":    func() []byte { return append(append([]byte(nil), data...), 0) },
		"tail bit set": func() []byte { d := append([]byte(nil), data...); d[len(d)-1] |= 0x80; return d },
		"zero length": func() []byte {
			d := append([]byte(nil), data[:12]...)
			for i := 4; i < 12; i++ {
				d[i] = 0
			}
			return d
		},
	}
	for name, fn := range cases {
		var got Bitset
		if err := got.UnmarshalBinary(fn()); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

func TestPanicsOutOfRange(t *testing.T) {
	b := New(10)
	for name, fn := range map[string]func(){
		"get":           func() { b.Get(10) },
		"set":           func() { b.Set(10) },
		"flip":          func() { b.Flip(10) },
		"xor mismatch":  func() { b.Xor(New(11)) },
		"xorcount":      func() { b.XorCount(New(11)) },
		"slide base":    func() { Slide(b, New(11), New(10)) },
		"slide retired": func() { Slide(b, New(10), New(11)) },
		"zero-size new": func() { New(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkFlip(b *testing.B) {
	bs := New(1 << 20)
	for i := 0; i < b.N; i++ {
		bs.Flip(uint64(i) & (1<<20 - 1))
	}
}

func TestGatherMatchesPerBitReads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := New(10_000)
	for i := 0; i < 3000; i++ {
		b.Set(uint64(rng.Intn(10_000)))
	}
	// Lengths straddling word boundaries, including the empty-tail and
	// tail-only cases.
	for _, k := range []int{1, 63, 64, 65, 128, 200, 6400} {
		idx := make([]uint64, k)
		for j := range idx {
			idx[j] = uint64(rng.Intn(10_000))
		}
		g := b.Gather(idx)
		if g.Len() != uint64(k) {
			t.Fatalf("k=%d: Gather len = %d", k, g.Len())
		}
		ones := uint64(0)
		for j, p := range idx {
			if g.Get(uint64(j)) != b.Get(p) {
				t.Fatalf("k=%d: gathered bit %d = %v, array bit %d = %v",
					k, j, g.Get(uint64(j)), p, b.Get(p))
			}
			if b.Get(p) {
				ones++
			}
		}
		if g.Count() != ones {
			t.Fatalf("k=%d: Gather count = %d, want %d", k, g.Count(), ones)
		}
	}
}

func TestGatherXorCountMatchesMaterialised(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b := New(10_000)
	for i := 0; i < 3000; i++ {
		b.Set(uint64(rng.Intn(10_000)))
	}
	for _, k := range []int{1, 63, 64, 65, 127, 200, 6400} {
		idx := make([]uint64, k)
		for j := range idx {
			idx[j] = uint64(rng.Intn(10_000))
		}
		o := New(uint64(k))
		for j := 0; j < k; j++ {
			if rng.Intn(2) == 1 {
				o.Set(uint64(j))
			}
		}
		g := b.Gather(idx)
		want := g.XorCount(o)
		if got := b.GatherXorCount(idx, o); got != want {
			t.Fatalf("k=%d: GatherXorCount = %d, want %d", k, got, want)
		}
		// The word form: counted only, and stored in place of its operand.
		ws := slices.Clone(o.UnsafeWords())
		if got, gotIn := b.GatherXorWords(nil, ws, idx), b.GatherXorWords(ws, ws, idx); got != want || gotIn != want || !slices.Equal(ws, g.UnsafeWords()) {
			t.Fatalf("k=%d: GatherXorWords = %d, in place %d, want %d (words equal: %v)", k, got, gotIn, want, slices.Equal(ws, g.UnsafeWords()))
		}
	}
}

func TestGatherXorCountLengthMismatchPanics(t *testing.T) {
	b := New(100)
	o := New(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	b.GatherXorCount(make([]uint64, 6), o)
}

func TestGatherOutOfRangePanics(t *testing.T) {
	b := New(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	b.Gather([]uint64{0, 100})
}

// TestFlipAllMatchesFlipLoop: FlipAll is Flip in a loop — same words, same
// maintained count — on spread-out lists and on lists where most indices
// repeat (an even number of toggles of one bit must cancel), at lengths
// around a word and at a length that is not a multiple of 64 bits.
func TestFlipAllMatchesFlipLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []uint64{1, 63, 64, 65, 1000, 1 << 14} {
		for _, distinct := range []uint64{n, 3} { // random over the array, duplicate-heavy
			for _, length := range []int{0, 1, 2, 255, 256, 257, 4096} {
				got, want := New(n), New(n)
				for round := 0; round < 3; round++ { // later rounds start from a populated array
					idx := make([]uint64, length)
					for i := range idx {
						idx[i] = (rng.Uint64() % distinct) * (n / distinct) % n
					}
					got.FlipAll(idx)
					for _, i := range idx {
						want.Flip(i)
					}
					if !got.Equal(want) || got.Count() != want.Count() {
						t.Fatalf("n=%d distinct=%d len=%d round %d: FlipAll count %d, Flip loop count %d, words equal %v",
							n, distinct, length, round, got.Count(), want.Count(), got.Equal(want))
					}
				}
			}
		}
	}
}

// TestFlipAllOutOfRangePanics: an index past the end panics with Flip's own
// message, and exactly the indices before it have been toggled (and counted).
func TestFlipAllOutOfRangePanics(t *testing.T) {
	message := func(fn func()) (msg any) {
		defer func() { msg = recover() }()
		fn()
		return nil
	}
	idx := []uint64{5, 70, 5, 99, 100, 7}
	got, want := New(100), New(100)
	wantMsg := message(func() {
		for _, i := range idx {
			want.Flip(i)
		}
	})
	gotMsg := message(func() { got.FlipAll(idx) })
	if wantMsg == nil || gotMsg != wantMsg {
		t.Fatalf("FlipAll panicked with %v, Flip with %v", gotMsg, wantMsg)
	}
	if !got.Equal(want) || got.Count() != want.Count() || got.Count() != 2 {
		t.Fatalf("after the panic FlipAll left count %d, the Flip loop %d (want 2: bits 70 and 99)", got.Count(), want.Count())
	}
}
