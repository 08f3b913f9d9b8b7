package core

import (
	"bytes"
	"errors"
	"math/bits"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/bitset"
	"github.com/vossketch/vos/internal/cpu"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// FuzzUnmarshalVOS throws arbitrary bytes at the sketch decoder: it must
// never panic, corrupt or truncated input must fail with a typed
// ErrCorrupt (callers gate recovery fallbacks on it), and any sketch it
// accepts must re-marshal to a decodable form with identical state.
func FuzzUnmarshalVOS(f *testing.F) {
	v := MustNew(Config{MemoryBits: 1024, SketchBits: 64, Seed: 3})
	v.Process(edgeFor(1, 2, true))
	v.Process(edgeFor(2, 3, true))
	seed, _ := v.MarshalBinary()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("VOS1"))
	// Truncations at every section boundary of the wire format, plus a
	// header bit flip — the shapes a torn checkpoint write produces.
	for _, cut := range []int{3, 4, 12, 28, 36, 52, len(seed) - 1} {
		if cut >= 0 && cut < len(seed) {
			f.Add(seed[:cut])
		}
	}
	flipped := append([]byte(nil), seed...)
	flipped[5] ^= 0x40
	f.Add(flipped)
	// A fast-family sketch (nonzero family tag in the header) and a seed
	// with an unknown family tag, so the family-validation branch is in the
	// corpus from the start.
	vf := MustNew(Config{MemoryBits: 1024, SketchBits: 64, Seed: 3, Family: hashing.KindFast})
	vf.Process(edgeFor(1, 2, true))
	fastSeed, _ := vf.MarshalBinary()
	f.Add(fastSeed)
	badFam := append([]byte(nil), seed...)
	badFam[19] = 0x07 // SketchBits high byte = family tag
	f.Add(badFam)
	// One user in two rows (corrupt) and the rows in descending order (fine).
	_, dup, swapped := twoUserPayloads()
	f.Add(dup)
	f.Add(swapped)

	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsState(t, data)
		got, err := UnmarshalVOS(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt decode failure: %v", err)
			}
			return
		}
		re, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted sketch failed: %v", err)
		}
		again, err := UnmarshalVOS(re)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if again.Config() != got.Config() || again.Stats() != got.Stats() {
			t.Fatal("round trip changed sketch state")
		}
	})
}

// FuzzUnmarshalWindow throws arbitrary bytes at the window decoder with
// the same contract as FuzzUnmarshalVOS: no panics, typed ErrCorrupt on
// anything invalid, and bit-exact round trips for anything accepted —
// including the rebuilt merged view, which is not serialized and must be
// reconstructible from the buckets alone.
func FuzzUnmarshalWindow(f *testing.F) {
	w, err := NewWindowAt(Config{MemoryBits: 1024, SketchBits: 64, Seed: 3}, 3, time.Second, time.Unix(3, 0))
	if err != nil {
		f.Fatal(err)
	}
	w.Merged().Process(edgeFor(1, 2, true))
	w.Rotate()
	w.Merged().Process(edgeFor(2, 3, true))
	seed, _ := w.MarshalBinary()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("VWN1"))
	// Truncations at the header fields, the first bucket length prefix,
	// and mid-bucket, plus bit flips in the bucket count and a bucket
	// payload — the shapes a torn checkpoint write produces.
	for _, cut := range []int{3, 4, 12, 20, 28, 36, len(seed) - 1} {
		if cut >= 0 && cut < len(seed) {
			f.Add(seed[:cut])
		}
	}
	for _, bit := range []int{20, 40} {
		if bit < len(seed) {
			flipped := append([]byte(nil), seed...)
			flipped[bit] ^= 0x04
			f.Add(flipped)
		}
	}
	// A bucket that names one user in two rows (corrupt) and one whose rows
	// are in descending order (fine).
	_, dup, swapped := twoUserPayloads()
	f.Add(windowOf(dup))
	f.Add(windowOf(swapped))

	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsState(t, data)
		got, err := UnmarshalWindow(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt decode failure: %v", err)
			}
			return
		}
		re, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted window failed: %v", err)
		}
		again, err := UnmarshalWindow(re)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if again.Stats() != got.Stats() || !again.End().Equal(got.End()) {
			t.Fatal("round trip changed window state")
		}
		gm, _ := got.Merged().MarshalBinary()
		am, _ := again.Merged().MarshalBinary()
		if !bytes.Equal(gm, am) {
			t.Fatal("round trip changed the rebuilt merged view")
		}
	})
}

// sameAsState holds UnmarshalState to the decoder data's magic selects —
// UnmarshalWindow for "VWN1", else UnmarshalVOS: the same error-or-not and,
// on success, exactly one state that re-marshals to the same bytes.
func sameAsState(t *testing.T, data []byte) {
	t.Helper()
	var want []byte
	var wantErr error
	if isWindowData(data) {
		var w *Window
		if w, wantErr = UnmarshalWindow(data); wantErr == nil {
			want, _ = w.MarshalBinary()
		}
	} else {
		var v *VOS
		if v, wantErr = UnmarshalVOS(data); wantErr == nil {
			want, _ = v.MarshalBinary()
		}
	}
	flat, ring, err := UnmarshalState(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("UnmarshalState error %v, its format's decoder %v", err, wantErr)
	}
	var got []byte
	switch {
	case err != nil:
		return
	case flat != nil && ring == nil:
		got, _ = flat.MarshalBinary()
	case ring != nil && flat == nil:
		got, _ = ring.MarshalBinary()
	default:
		t.Fatalf("UnmarshalState returned flat %v and ring %v", flat != nil, ring != nil)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("UnmarshalState's state re-marshals to other bytes than its format's decoder's")
	}
}

// edgeFor is a fuzz-test helper building one edge.
func edgeFor(u, i uint64, insert bool) stream.Edge {
	op := stream.Insert
	if !insert {
		op = stream.Delete
	}
	return stream.Edge{User: stream.User(u), Item: stream.Item(i), Op: op}
}

// FuzzRecoverSketch: any user and seed, k up to 6,403 and m up to 2²⁰ (a
// power of two when pow2 is set), either family, over an array of random
// words — the fused hash-and-gather pass, its tail and the fill-then-gather
// path, dispatched and on the Go loops alone, each held to RecoverBit slot
// by slot, and the count-only gather to QueryPerBit.
func FuzzRecoverSketch(f *testing.F) {
	f.Add(uint64(1), uint64(9), uint16(6400), uint32(1<<21), true, false)
	f.Add(^uint64(0), uint64(3), uint16(200), uint32(100_003), false, false)
	f.Add(uint64(5), uint64(4), uint16(63), uint32(20), true, true)
	f.Fuzz(func(t *testing.T, user, seed uint64, k uint16, m uint32, pow2, fast bool) {
		cfg := Config{SketchBits: int(k)%6403 + 1, Seed: seed}
		if cfg.MemoryBits = uint64(m) % (1<<20 + 1); pow2 {
			cfg.MemoryBits = 1 << (m % 21)
		}
		cfg.MemoryBits = max(cfg.MemoryBits, uint64(cfg.SketchBits))
		if fast {
			cfg.Family = hashing.KindFast
		}
		v := MustNew(cfg)
		v.SetRecoveredCacheCapacity(-1) // each recovery gathers
		ws, state := make([]uint64, (cfg.MemoryBits+63)/64), seed
		ones := uint64(0)
		for i := range ws {
			ws[i] = hashing.SplitMix64(&state)
			if rest := cfg.MemoryBits - uint64(i)*64; rest < 64 {
				ws[i] &= 1<<rest - 1
			}
			ones += uint64(bits.OnesCount64(ws[i]))
		}
		v.arr = bitset.FromWordsCountedUnsafe(ws, cfg.MemoryBits, ones)
		u, w := stream.User(user), stream.User(user^seed)
		check := func(t *testing.T) {
			checkRecoverSketch(t, v, u)
			if got, ref := v.QueryRecovered(v.RecoverSketch(w), u), v.QueryPerBit(w, u); got != ref {
				t.Fatalf("%+v: QueryRecovered(%d, %d) = %+v, per-bit %+v", cfg, w, u, got, ref)
			}
		}
		t.Run("dispatched", check)
		defer cpu.GoLoopsOnly()()
		t.Run("go", check)
	})
}
