package stream_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/netproto"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/internal/wal"
)

// The compat corpus is bytes an earlier tree wrote, kept so that every later
// tree proves it still reads them to the same edges and still writes the same
// bytes for those edges (ROADMAP item 1c). Generation 1 was written by the
// tree of PR 26, before the element codec's kernel was rewritten: the stream
// of `streamgen -scale 0.002` (seed 2) with some ids widened so that one-,
// two-, three-, nine- and ten-byte varints all occur, as a stream file, as a
// WAL segment and as a capture of VOSSTRM1 data frames.
//
// A tree that changes a format adds a generation beside this one and keeps
// reading it; -write-compat-corpus exists to write a new generation's files,
// never to make a failing comparison pass.
var writeCorpus = flag.Bool("write-compat-corpus", false, "write testdata/compat with this tree's encoders")

const (
	compatDir     = "testdata/compat"
	compatSession = 0x5645_5253_494f_4e31
	compatFrame   = 256 // edges a frame
	compatRecord  = 1000
)

// compatStream is the corpus' logical stream. Ids are widened by value, not
// by position, so a user's delete still names the edge its insert made.
func compatStream(t *testing.T) []stream.Edge {
	t.Helper()
	profile, err := gen.ProfileByName("YouTube")
	if err != nil {
		t.Fatal(err)
	}
	base := gen.Bipartite(profile.Scaled(0.002), 2)
	cfg := gen.PaperDynamize(len(base), 3)
	cfg.DeleteFrac = 0.5
	edges := gen.Dynamize(base, cfg)
	for k := range edges {
		switch e := &edges[k]; e.User % 32 {
		case 1, 9, 17, 25:
			e.User += 1 << 13 // a three-byte user word
		case 5:
			e.User |= 1 << 62 // ten bytes
		case 7:
			e.User |= 1 << 55 // nine
		}
		switch e := &edges[k]; e.Item % 32 {
		case 3, 19:
			e.Item += 1 << 14
		case 5:
			e.Item |= 1 << 56 // nine bytes
		case 11:
			e.Item |= 1 << 63 // ten
		}
	}
	return edges
}

// compatFrames encodes edges as the capture file: every data frame behind
// its length as a big-endian uint32, an ack requested on every eighth.
func compatFrames(t *testing.T, edges []stream.Edge) []byte {
	t.Helper()
	var out []byte
	for seq := uint64(0); len(edges) > 0; seq++ {
		n := min(compatFrame, len(edges))
		var flags uint16
		if seq%8 == 0 {
			flags = netproto.FlagAckRequest
		}
		frame, err := netproto.AppendDataFrame(nil, compatSession, seq, flags, edges[:n])
		if err != nil {
			t.Fatal(err)
		}
		out = append(binary.BigEndian.AppendUint32(out, uint32(len(frame))), frame...)
		edges = edges[n:]
	}
	return out
}

// compatSegment logs the records to a fresh directory and returns the one
// segment that makes.
func compatSegment(t *testing.T, records [][]stream.Edge) []byte {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(wal.SegmentPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func sameEdges(t *testing.T, what string, got, want []stream.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, the stream file has %d", what, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: edge %d is %v, the stream file has %v", what, k, got[k], want[k])
		}
	}
}

// TestCompatCorpus reads each file of the corpus to the same edges and writes
// it again, byte for byte, with this tree's encoders.
func TestCompatCorpus(t *testing.T) {
	streamPath := filepath.Join(compatDir, "stream.bin")
	segPath := filepath.Join(compatDir, "wal.seg")
	framesPath := filepath.Join(compatDir, "frames.cap")
	if *writeCorpus {
		edges := compatStream(t)
		var records [][]stream.Edge
		for rest := edges; len(rest) > 0; rest = rest[min(compatRecord, len(rest)):] {
			records = append(records, rest[:min(compatRecord, len(rest))])
		}
		var file bytes.Buffer
		if err := stream.WriteBinary(&file, edges); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(compatDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for path, data := range map[string][]byte{
			streamPath: file.Bytes(), segPath: compatSegment(t, records), framesPath: compatFrames(t, edges),
		} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	file, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := stream.ReadBinary(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	// The corpus is only a proof of the codec if it walks every varint width
	// the codec treats differently.
	var widths [11]int
	for _, e := range edges {
		uo := uint64(e.User)<<1 | uint64(e.Op)
		widths[(bits.Len64(uo|1)+6)/7]++
		widths[(bits.Len64(uint64(e.Item)|1)+6)/7]++
	}
	for _, w := range []int{1, 2, 3, 9, 10} {
		if widths[w] == 0 {
			t.Fatalf("the corpus holds no %d-byte varint: %v", w, widths)
		}
	}
	var again bytes.Buffer
	if err := stream.WriteBinary(&again, edges); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), file) {
		t.Fatal("stream.bin: WriteBinary of the decoded edges differs from the file")
	}
	if whole, err := stream.AppendBinary(nil, edges); err != nil || !bytes.Equal(whole, file) {
		t.Fatalf("stream.bin: AppendBinary of the decoded edges differs from the file (%v)", err)
	}

	seg, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(wal.SegmentPath(dir, 0), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var records [][]stream.Edge
	var logged []stream.Edge
	if err := wal.ReplayDir(dir, 0, func(_ uint64, rec []stream.Edge) error {
		records = append(records, rec)
		logged = append(logged, rec...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sameEdges(t, "wal.seg", logged, edges)
	if !bytes.Equal(compatSegment(t, records), seg) {
		t.Fatal("wal.seg: logging the replayed records again writes a different segment")
	}

	capture, err := os.ReadFile(framesPath)
	if err != nil {
		t.Fatal(err)
	}
	var framed []stream.Edge
	for rest, seq := capture, uint64(0); len(rest) > 0; seq++ {
		if len(rest) < 4 || uint64(len(rest)-4) < uint64(binary.BigEndian.Uint32(rest)) {
			t.Fatalf("frames.cap: frame %d runs past the end of the capture", seq)
		}
		n := int(binary.BigEndian.Uint32(rest))
		f, err := netproto.DecodeFrame(rest[4 : 4+n])
		if err != nil {
			t.Fatalf("frames.cap: frame %d: %v", seq, err)
		}
		got, err := f.DecodeEdges()
		if err != nil {
			t.Fatalf("frames.cap: frame %d: %v", seq, err)
		}
		if f.Session != compatSession || f.Seq != seq {
			t.Fatalf("frames.cap: frame %d carries session %x seq %d", seq, f.Session, f.Seq)
		}
		framed = append(framed, got...)
		rest = rest[4+n:]
	}
	sameEdges(t, "frames.cap", framed, edges)
	if !bytes.Equal(compatFrames(t, framed), capture) {
		t.Fatal("frames.cap: framing the decoded edges again writes different frames")
	}
}
