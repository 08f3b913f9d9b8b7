package stream_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/cluster"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/cpu"
	"github.com/vossketch/vos/internal/engine"
	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/netproto"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/internal/wal"
	"github.com/vossketch/vos/server"
)

// The compat corpus is bytes an earlier tree wrote, kept so that every later
// tree proves it still reads them to the same edges and still writes the same
// bytes for those edges (ROADMAP item 1c). Generation 1 was written by the
// tree of PR 26, before the element codec's kernel was rewritten: the stream
// of `streamgen -scale 0.002` (seed 2) with some ids widened so that one-,
// two-, three-, nine- and ten-byte varints all occur, as a stream file, as a
// WAL segment and as a capture of VOSSTRM1 data frames. Beside them lie the
// checkpoints Engine.Checkpoint writes after that stream — a flat engine's and
// a windowed one's, under each hash family — written by a tree whose windows
// still stored the current bucket as a sketch of its own. And the cluster
// tier's bytes, written by the tree of PR 34: a vosd's answer to a ?since=
// cursor (the body and the cursor header), a ring and a manifest.
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

// compatBuckets is the windowed checkpoints' ring size, and compatCuts their
// clock: before the edge at eighth at of the stream, the engine crosses cross
// bucket boundaries. Crossing two at once leaves one live bucket empty.
const compatBuckets = 4

var compatCuts = []struct{ eighth, cross int }{{1, 1}, {2, 1}, {3, 2}, {5, 1}, {6, 1}}

// compatEngine is the engine configuration the checkpoints are written and
// reopened under; the clock stands still, so only compatCuts rotate.
func compatEngine(dir string, fam hashing.Kind, windowed bool) engine.Config {
	cfg := engine.Config{
		Sketch:             core.Config{MemoryBits: 1 << 14, SketchBits: 128, Seed: 11, Family: fam},
		Shards:             2,
		FlushInterval:      -1,
		PositionCacheUsers: -1,
		Durability:         &engine.DurabilityConfig{Dir: dir, Sync: wal.SyncOff},
	}
	if windowed {
		cfg.Window = &engine.WindowConfig{Buckets: compatBuckets, BucketDuration: time.Second,
			Now: func() time.Time { return time.Unix(1000, 0) }}
	}
	return cfg
}

// compatBucketOf returns how many bucket boundaries the windowed engine has
// crossed before each edge, and how many it crosses in all.
func compatBucketOf(n int) (of []int, total int) {
	of = make([]int, n)
	for k := range of {
		for _, cut := range compatCuts {
			if k == n*cut.eighth/8 {
				total += cut.cross
			}
		}
		of[k] = total
	}
	return of, total
}

// compatCheckpoint runs edges through a durable engine — rotating at
// compatCuts when windowed — and returns the checkpoint file it writes.
func compatCheckpoint(t *testing.T, edges []stream.Edge, fam hashing.Kind, windowed bool) []byte {
	t.Helper()
	dir := t.TempDir()
	e, err := engine.New(compatEngine(dir, fam, windowed))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	of, _ := compatBucketOf(len(edges))
	for from := 0; from < len(edges); {
		to := from + 1
		for to < len(edges) && to-from < compatRecord && of[to] == of[from] {
			to++
		}
		if err := e.ProcessBatch(edges[from:to]); err != nil {
			t.Fatal(err)
		}
		if windowed && to < len(edges) && of[to] != of[from] {
			e.Flush()
			end := 1001 + of[from] // the ring's end: the clock starts in [1000 s, 1001 s)
			if got, want := e.AdvanceWindowTo(time.Unix(int64(end+of[to]-of[from]-1), 0)), of[to]-of[from]; got != want {
				t.Fatalf("engine crossed %d boundaries, want %d", got, want)
			}
		}
		from = to
	}
	pos, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(wal.CheckpointPath(dir, pos))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameSketch fails unless got serializes to the bytes of a fresh sketch of
// edges.
func sameSketch(t *testing.T, what string, got *core.VOS, edges []stream.Edge) {
	t.Helper()
	fresh := core.MustNew(got.Config())
	fresh.ProcessBatch(edges)
	gb, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, fb) {
		t.Fatalf("%s differs from a fresh sketch of its %d edges", what, len(edges))
	}
}

// checkCompatCheckpoint decodes a checkpoint file of the corpus, checks its
// state against the stream, re-encodes it, and has an engine reopened on it
// write it again — each byte for byte.
func checkCompatCheckpoint(t *testing.T, name string, data []byte, edges []stream.Edge, fam hashing.Kind, windowed bool) {
	pos, sk, err := wal.DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var again []byte
	if windowed {
		w, err := core.UnmarshalWindow(sk)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Config().Family != fam || w.Buckets() != compatBuckets {
			t.Fatalf("%s: a %v window of %d buckets", name, w.Config().Family, w.Buckets())
		}
		of, total := compatBucketOf(len(edges))
		first := 0
		for first < len(edges) && of[first] <= total-compatBuckets {
			first++
		}
		sameSketch(t, name+": Merged()", w.Merged(), edges[first:])
		for k := 0; k < compatBuckets; k++ {
			var in []stream.Edge
			for i, e := range edges {
				if of[i] == total-(compatBuckets-1)+k {
					in = append(in, e)
				}
			}
			sameSketch(t, fmt.Sprintf("%s: Bucket(%d)", name, k), w.Bucket(k), in)
		}
		again, err = w.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
	} else {
		v, err := core.UnmarshalVOS(sk)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.Config().Family != fam {
			t.Fatalf("%s: a %v sketch", name, v.Config().Family)
		}
		sameSketch(t, name, v, edges)
		again, err = v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(wal.EncodeCheckpoint(pos, again), data) {
		t.Fatalf("%s: re-encoding the decoded state writes a different checkpoint", name)
	}

	dir := t.TempDir()
	if err := os.WriteFile(wal.CheckpointPath(dir, pos), data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := engine.Open(compatEngine(dir, fam, windowed))
	if err != nil {
		t.Fatalf("%s: reopen: %v", name, err)
	}
	defer e.Close()
	if got, err := e.Checkpoint(); err != nil || got != pos {
		t.Fatalf("%s: reopened engine checkpoints at %d (%v), want %d", name, got, err, pos)
	}
	if rewritten, err := os.ReadFile(wal.CheckpointPath(dir, pos)); err != nil || !bytes.Equal(rewritten, data) {
		t.Fatalf("%s: a reopened engine writes a different checkpoint (%v)", name, err)
	}
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
// it again, byte for byte, with this tree's encoders: on the dispatched
// kernels, then on the Go loops alone.
func TestCompatCorpus(t *testing.T) {
	t.Run("dispatched", testCompatCorpus)
	defer cpu.GoLoopsOnly()()
	t.Run("go", testCompatCorpus)
}

func testCompatCorpus(t *testing.T) {
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

	for _, fam := range []hashing.Kind{hashing.KindClassic, hashing.KindFast} {
		for _, shape := range []string{"flat", "window"} {
			name := "ckpt-" + shape + "-" + fam.String() + ".bin"
			path := filepath.Join(compatDir, name)
			if *writeCorpus {
				if err := os.WriteFile(path, compatCheckpoint(t, edges, fam, shape == "window"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			checkCompatCheckpoint(t, name, data, edges, fam, shape == "window")
		}
	}

	checkCompatDelta(t, edges)
	checkCompatDocuments(t)
}

// compatDeltaEdges is the stream's tail that the delta response carries: past
// the cursor it answers, well inside the journals of compatDeltaEngine.
const compatDeltaEdges = 1000

// compatDeltaEngine is the memory-only engine the delta response is written
// by. Its array holds 1024 journalled edges a shard.
func compatDeltaEngine() engine.Config {
	return engine.Config{
		Sketch:             core.Config{MemoryBits: 1 << 20, SketchBits: 128, Seed: 11},
		Shards:             2,
		FlushInterval:      -1,
		PositionCacheUsers: -1,
	}
}

// compatDelta is a vosd's answer to GET /v1/cluster/sketch?since=, where the
// cursor is the one a full export issued before the stream's last
// compatDeltaEdges edges: the response body and its cursor header.
func compatDelta(t *testing.T, edges []stream.Edge) (body []byte, cursor string) {
	t.Helper()
	e, err := engine.New(compatDeltaEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cut := len(edges) - compatDeltaEdges
	if err := e.ProcessBatch(edges[:cut]); err != nil {
		t.Fatal(err)
	}
	full, err := e.ExportSince("")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ProcessBatch(edges[cut:]); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(vos.NewEngineService(e), server.Options{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + server.RouteClusterSketch + "?since=" + url.QueryEscape(full.Cursor))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get(server.HeaderSketchFallback) != "" {
		t.Fatalf("delta response: status %d, fallback %q", resp.StatusCode, resp.Header.Get(server.HeaderSketchFallback))
	}
	return body, resp.Header.Get(server.HeaderSketchCursor)
}

// checkCompatDelta reads the delta response of the corpus: the body decodes to
// the stream's tail in per-shard order and encodes to the same bytes, this
// tree's engine takes the cursor header for a cursor, and writing the response
// again gives the same body and the same cursor but for the boot draw that
// opens it (random by design: it tells one engine life from another).
func checkCompatDelta(t *testing.T, edges []stream.Edge) {
	bodyPath := filepath.Join(compatDir, "delta.bin")
	cursorPath := filepath.Join(compatDir, "delta.cursor")
	if *writeCorpus {
		body, cursor := compatDelta(t, edges)
		if err := os.WriteFile(bodyPath, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cursorPath, []byte(cursor), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	body, err := os.ReadFile(bodyPath)
	if err != nil {
		t.Fatal(err)
	}
	cursor, err := os.ReadFile(cursorPath)
	if err != nil {
		t.Fatal(err)
	}

	e, err := engine.New(compatDeltaEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var want []stream.Edge
	for shard := 0; shard < e.Shards(); shard++ {
		for _, ed := range edges[len(edges)-compatDeltaEdges:] {
			if e.ShardOf(ed.User) == shard {
				want = append(want, ed)
			}
		}
	}
	got, err := stream.DecodeBinary(body)
	if err != nil {
		t.Fatalf("delta.bin: %v", err)
	}
	sameEdges(t, "delta.bin", got, want)
	if again, err := stream.AppendBinary(nil, got); err != nil || !bytes.Equal(again, body) {
		t.Fatalf("delta.bin: encoding the decoded edges again writes different bytes (%v)", err)
	}
	if d, err := e.ExportSince(string(cursor)); err != nil || d.Fallback != engine.FallbackEpoch {
		t.Fatalf("delta.cursor %q: another engine answers %v with fallback %q, want the %q fallback", cursor, err, d.Fallback, engine.FallbackEpoch)
	}

	body2, cursor2 := compatDelta(t, edges)
	if !bytes.Equal(body2, body) {
		t.Fatal("delta.bin: this tree answers the same cursor with a different body")
	}
	_, epoch, _ := strings.Cut(string(cursor), ".")
	_, epoch2, _ := strings.Cut(cursor2, ".")
	if epoch2 != epoch || epoch == "" {
		t.Fatalf("delta.cursor: this tree writes %q where the corpus has %q (past the boot draw)", cursor2, cursor)
	}
}

// compatRing and compatManifest are the cluster documents of the corpus: a
// ring after two handoffs and the manifest of a checkpoint taken under it.
var (
	compatRing = cluster.Ring{Version: 3, RouteSeed: 7, Shards: []string{
		"http://10.0.0.1:7070", "http://10.0.0.4:7070", "https://vosd-2.internal:7443",
	}}
	compatManifest = cluster.Manifest{RingVersion: 3, RouteSeed: 7, Shards: []cluster.ManifestShard{
		{Shard: 0, Node: "http://10.0.0.1:7070", Position: 1 << 33},
		{Shard: 1, Node: "http://10.0.0.4:7070", Position: 0},
		{Shard: 2, Node: "https://vosd-2.internal:7443", Position: 918273},
	}}
)

// checkCompatDocuments reads the ring and the manifest of the corpus to the
// values they were written from and encodes those values to the same bytes.
func checkCompatDocuments(t *testing.T) {
	ringPath := filepath.Join(compatDir, "ring.json")
	manifestPath := filepath.Join(compatDir, "manifest.json")
	if *writeCorpus {
		if err := cluster.SaveRing(ringPath, &compatRing); err != nil {
			t.Fatal(err)
		}
		if err := cluster.SaveManifest(manifestPath, &compatManifest); err != nil {
			t.Fatal(err)
		}
	}
	ringFile, err := os.ReadFile(ringPath)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.DecodeRing(ringFile)
	if err != nil || !reflect.DeepEqual(*ring, compatRing) {
		t.Fatalf("ring.json decodes to %+v (%v), want %+v", ring, err, compatRing)
	}
	if again, err := cluster.EncodeRing(ring); err != nil || !bytes.Equal(again, ringFile) {
		t.Fatalf("ring.json: encoding the decoded ring writes different bytes (%v)", err)
	}
	manifestFile, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cluster.DecodeManifest(manifestFile)
	if err != nil || !reflect.DeepEqual(*m, compatManifest) {
		t.Fatalf("manifest.json decodes to %+v (%v), want %+v", m, err, compatManifest)
	}
	if again, err := cluster.EncodeManifest(m); err != nil || !bytes.Equal(again, manifestFile) {
		t.Fatalf("manifest.json: encoding the decoded manifest writes different bytes (%v)", err)
	}
}
