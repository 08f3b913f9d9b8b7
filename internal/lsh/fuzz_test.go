package lsh

import (
	"encoding/binary"
	"testing"

	"github.com/vossketch/vos/internal/stream"
)

// FuzzBandExtraction throws arbitrary packed bytes and arbitrary band
// shapes at the banding surface: BandKeys, and an index fed through
// Put/Candidates with the same material. Invalid shapes and short slices
// must error; nothing may panic or read out of bounds. Accepted inputs
// must band deterministically, a band's key must be the same whether it is
// taken from the whole signature or from that band's bits alone, and
// colliding with yourself is the one collision banding can never miss.
func FuzzBandExtraction(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint16(64), uint64(1), []byte{})
	f.Add(uint8(8), uint8(16), uint16(128), uint64(7), bytesOf(0xdeadbeefcafef00d, 0x0123456789abcdef))
	f.Add(uint8(0), uint8(3), uint16(9), uint64(0), []byte{1, 2, 3})
	f.Add(uint8(32), uint8(8), uint16(256), uint64(42), make([]byte, 32))
	f.Add(uint8(2), uint8(63), uint16(130), uint64(3), bytesOf(^uint64(0), 0, ^uint64(0)))

	f.Fuzz(func(t *testing.T, bands, rows uint8, sigBits uint16, seed uint64, data []byte) {
		words := make([]uint64, (len(data)+7)/8)
		for i, b := range data {
			words[i/8] |= uint64(b) << ((i % 8) * 8)
		}
		p := Params{Bands: int(bands), Rows: int(rows), Seed: seed}

		keys, err := BandKeys(p, words, int(sigBits))
		if err != nil {
			// Invalid shape or short signature: the index constructor must
			// agree that this input is unusable at this width.
			if ix, err2 := NewBandIndex(p, int(sigBits)); err2 == nil {
				if err3 := ix.Put(1, words); err3 == nil {
					t.Fatalf("BandKeys rejected (%v) what Put accepted", err)
				}
			}
			return
		}
		if len(keys) != p.Bands {
			t.Fatalf("got %d keys for %d bands", len(keys), p.Bands)
		}
		again, err := BandKeys(p, words, int(sigBits))
		if err != nil {
			t.Fatalf("second BandKeys call failed: %v", err)
		}
		for i := range keys {
			if keys[i] != again[i] {
				t.Fatalf("band %d key not deterministic", i)
			}
			if one, err := BandKey(p, i, bandBits(words, i, p.Rows)); err != nil || one != keys[i] {
				t.Fatalf("band %d: key from its bits %x (%v), from the signature %x", i, one, err, keys[i])
			}
		}

		ix, err := NewBandIndex(p, int(sigBits))
		if err != nil {
			t.Fatalf("BandKeys accepted what NewBandIndex rejected: %v", err)
		}
		if err := ix.Put(1, words); err != nil {
			t.Fatalf("BandKeys accepted what Put rejected: %v", err)
		}
		if err := ix.Put(2, words); err != nil {
			t.Fatal(err)
		}
		cands, err := ix.Candidates(1, words)
		if err != nil {
			t.Fatalf("BandKeys accepted what Candidates rejected: %v", err)
		}
		found := false
		for _, c := range cands {
			if c == stream.User(1) {
				t.Fatal("probe returned itself")
			}
			found = found || c == stream.User(2)
		}
		if !found {
			t.Fatal("identical signature did not collide")
		}
	})
}

// bytesOf packs words little-endian, matching the recovered-sketch layout.
func bytesOf(words ...uint64) []byte {
	out := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out
}
