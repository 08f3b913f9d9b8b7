package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

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

// edgeFor is a fuzz-test helper building one edge.
func edgeFor(u, i uint64, insert bool) stream.Edge {
	op := stream.Insert
	if !insert {
		op = stream.Delete
	}
	return stream.Edge{User: stream.User(u), Item: stream.Item(i), Op: op}
}
