package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/vossketch/vos/internal/stream"
)

// TestBadFormatLeavesOutputUntouched: -format is checked before -o is
// created, so a typo does not cost the file that was there.
func TestBadFormatLeavesOutputUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "existing.stream")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "0.0005", "-format", "txt", "-o", path}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown -format accepted")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "precious" {
		t.Fatalf("existing -o file after a bad -format: %q, %v", got, err)
	}
}

// TestFormatsCarryTheSameStream: the binary file, the text file and binary
// on stdout all read back to one feasible stream with deletions in it, and
// -stats reports on stderr without taking the stream's place.
func TestFormatsCarryTheSameStream(t *testing.T) {
	gen := func(stdout, stderr io.Writer, extra ...string) {
		t.Helper()
		args := append([]string{"-dataset", "Flickr", "-scale", "0.0005", "-q", "0.001"}, extra...)
		if err := run(args, stdout, stderr); err != nil {
			t.Fatal(err)
		}
	}
	read := func(path string, decode func(io.Reader) ([]stream.Edge, error)) []stream.Edge {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		edges, err := decode(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return edges
	}
	dir := t.TempDir()
	binPath, txtPath := filepath.Join(dir, "s.bin"), filepath.Join(dir, "s.txt")
	gen(io.Discard, io.Discard, "-o", binPath)
	gen(io.Discard, io.Discard, "-format", "text", "-o", txtPath)
	fromBin, fromTxt := read(binPath, stream.ReadBinary), read(txtPath, stream.ReadText)
	if len(fromBin) == 0 || !slices.Equal(fromBin, fromTxt) {
		t.Fatalf("binary file holds %d edges, text file %d, equal: %v", len(fromBin), len(fromTxt), slices.Equal(fromBin, fromTxt))
	}
	if err := stream.Validate(fromBin); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(fromBin, func(e stream.Edge) bool { return e.Op == stream.Delete }) {
		t.Fatal("no deletion in a stream generated with -q 0.001")
	}

	var stdout, stderr bytes.Buffer
	gen(&stdout, &stderr, "-stats")
	fromStdout, err := stream.ReadBinary(&stdout)
	if err != nil || !slices.Equal(fromStdout, fromBin) {
		t.Fatalf("stdout under -stats: %d edges, %v; the file has %d", len(fromStdout), err, len(fromBin))
	}
	if !bytes.Contains(stderr.Bytes(), []byte("elements=")) {
		t.Fatalf("-stats wrote %q to stderr", stderr.String())
	}
}
