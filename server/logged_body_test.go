package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/bits"
	"net/http/httptest"
	"os"
	"slices"
	"testing"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/wal"
	"github.com/vossketch/vos/server"
)

// durableTestConfig is testEngineConfig behind a log that is not fsynced,
// in segments small enough that a test's stream crosses several. The lock
// is off: the tests reopen a directory whose engine they abandon, as a
// crash would, so that the reopened engine replays the log and not a
// checkpoint Close wrote.
func durableTestConfig() vos.EngineConfig {
	cfg := testEngineConfig()
	cfg.Durability = &vos.DurabilityConfig{Sync: vos.SyncOff, SegmentBytes: 4 << 10, DisableLock: true}
	return cfg
}

// segmentFiles reads every WAL segment in dir, in position order.
func segmentFiles(t *testing.T, dir string) [][]byte {
	t.Helper()
	bases, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(bases))
	for i, base := range bases {
		if out[i], err = os.ReadFile(wal.SegmentPath(dir, base)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// assertReplays opens a second engine on dir, whose first one was abandoned
// without Close, and requires its state to be a single sketch over want.
func assertReplays(t *testing.T, dir string, want []vos.Edge) {
	t.Helper()
	reopened, err := vos.OpenEngine(dir, durableTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	single := vos.MustNew(testEngineConfig().Sketch)
	single.ProcessBatch(want)
	wantState, err := single.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantState) {
		t.Fatal("the engine replayed from the log is not a single sketch over the accepted edges")
	}
}

// TestLoggedBodyIsWhatAppendWrites: a durable engine logs a binary POST
// /v1/edges as the body's own bytes behind the magic instead of encoding the
// decoded edges again. For the batches the Go client sends, that must be
// byte for byte the log wal.Append writes from the same batches — segment by
// segment, so the record shape, where segments roll over and every reader of
// them (replay, vosinspect, the compat corpus) see no change.
func TestLoggedBodyIsWhatAppendWrites(t *testing.T) {
	const batch = 97
	edges := feasibleStream(6_000, 300, 0.25, 41)
	for i := range 40 { // long varints, up to the largest id each side carries
		edges = append(edges, vos.Edge{User: vos.MaxUser >> (i % 63), Item: vos.Item(1<<63 + uint64(i)), Op: vos.Insert})
	}

	dir := t.TempDir()
	eng, err := vos.OpenEngine(dir, durableTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{BatchSize: batch, Linger: -1})
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Ingest(ctx, edges); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	refDir := t.TempDir()
	ref, err := wal.Open(refDir, wal.Options{Sync: wal.SyncOff, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(edges); off += batch {
		if err := ref.Append(edges[off:min(off+batch, len(edges))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	got, want := segmentFiles(t, dir), segmentFiles(t, refDir)
	if len(want) < 3 {
		t.Fatalf("the reference log has %d segments; the test means to cross several", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("the engine's log has %d segments, wal.Append wrote %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("segment %d of %d differs from what wal.Append writes for the same batches", i, len(want))
		}
	}
	assertReplays(t, dir, edges)
}

// overlong appends x's uvarint encoding stretched to n bytes: the padding
// bytes carry nothing but their continuation bit.
func overlong(buf []byte, x uint64, n int) []byte {
	for i := 0; i < n-1; i++ {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}

// TestOverlongBodyReplays: a body's varints need not be minimal — the decoder
// takes any form up to ten bytes, as it always has — and the log now keeps
// the form the body came in. Such a body is still accepted, and an engine
// recovered from the log holds exactly the edges it decoded to.
func TestOverlongBodyReplays(t *testing.T) {
	edges := []vos.Edge{
		{User: 1, Item: 2, Op: vos.Insert},
		{User: 300, Item: 1 << 40, Op: vos.Insert},
		{User: vos.MaxUser, Item: 7, Op: vos.Insert},
		{User: 1, Item: 2, Op: vos.Delete},
	}
	body := binaryBody(t, nil)[:8] // the magic
	body = overlong(body, uint64(len(edges)), 3)
	for i, e := range edges {
		uo := uint64(e.User) << 1
		if e.Op == vos.Delete {
			uo |= 1
		}
		// Each varint padded to a length between one byte past its own
		// and the ten the format allows.
		body = overlong(body, uo, min(binary.MaxVarintLen64, (bits.Len64(uo|1)+6)/7+1+3*i))
		body = overlong(body, uint64(e.Item), binary.MaxVarintLen64-i)
	}
	got, err := vos.ReadStreamBinary(bytes.NewReader(body))
	if err != nil || !slices.Equal(got, edges) {
		t.Fatalf("the hand-built body decodes to %v, %v; want the %d edges", got, err, len(edges))
	}

	dir := t.TempDir()
	eng, err := vos.OpenEngine(dir, durableTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	defer ts.Close()
	if err := postBinary(ts.URL, body, 200); err != nil {
		t.Fatal(err)
	}
	logged := bytes.Join(segmentFiles(t, dir), nil)
	if !bytes.Contains(logged, body[8:]) {
		t.Error("the log does not hold the body's own bytes behind the magic")
	}
	assertReplays(t, dir, edges)
}
