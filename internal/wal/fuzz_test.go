package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/vossketch/vos/internal/stream"
)

// FuzzDecodeEdges throws arbitrary bytes at the record-payload decoder: it
// must never panic, failures must be typed ErrCorrupt, and any payload it
// accepts must round-trip through the writer's encoding. (Byte identity is
// not required — the decoder tolerates non-minimal varints, which the
// writer never produces and the record CRC keeps out of real logs.)
func FuzzDecodeEdges(f *testing.F) {
	f.Add(mustAppendEdges(f, nil, testEdges(0, 3)))
	f.Add(mustAppendEdges(f, nil, nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		edges, err := DecodeEdges(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt decode failure: %v", err)
			}
			return
		}
		again, err := DecodeEdges(mustAppendEdges(t, nil, edges))
		if err != nil {
			t.Fatalf("re-decode of accepted payload failed: %v", err)
		}
		if len(again) != len(edges) {
			t.Fatalf("round trip changed length %d -> %d", len(edges), len(again))
		}
		for i := range edges {
			if edges[i] != again[i] {
				t.Fatalf("round trip changed edge %d", i)
			}
		}
	})
}

// FuzzDecodeCheckpoint fuzzes the checkpoint frame decoder: no panics,
// typed errors, and accepted frames round-trip through EncodeCheckpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(EncodeCheckpoint(42, []byte("sketch bytes")))
	f.Add(EncodeCheckpoint(0, nil))
	f.Add([]byte{})
	f.Add(append(ckptMagic[:], make([]byte, 20)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		pos, sketch, err := DecodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt decode failure: %v", err)
			}
			return
		}
		if !bytes.Equal(EncodeCheckpoint(pos, sketch), data) {
			t.Fatal("accepted checkpoint does not round-trip")
		}
	})
}

// FuzzReadSegment feeds arbitrary file contents through the segment
// reader: it must never panic, and whatever records it accepts before
// stopping must round-trip through the writer path.
func FuzzReadSegment(f *testing.F) {
	// A well-formed two-record segment as the structured seed.
	dir := f.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	l.Append(testEdges(0, 4))
	l.Append(testEdges(4, 2))
	l.Close()
	good, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn tail
	f.Add([]byte{})
	f.Add(segMagic[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), segName(0))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := InspectSegment(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt inspect failure: %v", err)
			}
			return
		}
		// The valid prefix Open truncates to lies within the file, and is
		// all of it unless the tail is torn.
		if info.Bytes != int64(len(data)) || info.ValidBytes > info.Bytes || (!info.Torn && info.ValidBytes != info.Bytes) {
			t.Fatalf("valid prefix %d of %d bytes (file %d, torn %v)", info.ValidBytes, info.Bytes, len(data), info.Torn)
		}
		var replayed uint64
		err = readSegment(path, func(batch []stream.Edge) error {
			replayed += uint64(len(batch))
			return nil
		})
		if err != nil && !errors.Is(err, errTornTail) {
			t.Fatalf("readSegment after successful inspect: %v", err)
		}
		if replayed != info.Edges {
			t.Fatalf("replayed %d edges, inspect found %d", replayed, info.Edges)
		}
	})
}
