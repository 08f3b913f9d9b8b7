package vos_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/netproto"
	"github.com/vossketch/vos/internal/wal"
)

// outOfRange is a batch whose second user has the bit the binary element
// encoding drops: encoded as it stands it would arrive as user 5.
var outOfRange = []vos.Edge{
	{User: 3, Item: 1, Op: vos.Insert},
	{User: 1<<63 | 5, Item: 7, Op: vos.Insert},
}

// TestUserRangeRefusedAtEveryEncoder: every entry that encodes edges
// refuses a user id above vos.MaxUser with vos.ErrUserRange and leaves its
// destination — buffer, log, socket — as it was, instead of delivering the
// edge to another user.
func TestUserRangeRefusedAtEveryEncoder(t *testing.T) {
	ctx := context.Background()
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { requests.Add(1) }))
	defer ts.Close()
	hc := client.New(ts.URL, client.Options{BatchSize: 1, Linger: -1, MaxRetries: -1})
	defer hc.Close()
	uc, err := client.NewUDP("127.0.0.1:9", client.UDPOptions{BatchSize: 1, AckEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	log, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	eng, err := vos.OpenEngine(t.TempDir(), vos.EngineConfig{Sketch: serviceSketchConfig(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var file bytes.Buffer

	cases := []struct {
		name    string
		encode  func() error
		written func() int64 // what reached the destination
	}{
		{"WriteStreamBinary",
			func() error { return vos.WriteStreamBinary(&file, outOfRange) },
			func() int64 { return int64(file.Len()) }},
		{"netproto.AppendDataFrame",
			func() error {
				frame, err := netproto.AppendDataFrame(nil, 1, 0, 0, outOfRange)
				if frame != nil {
					t.Errorf("AppendDataFrame returned %d bytes with its error", len(frame))
				}
				return err
			},
			func() int64 { return 0 }},
		{"wal.Log.Append",
			func() error { return log.Append(outOfRange) },
			func() int64 { return int64(log.Pos()) }},
		{"durable Engine.ProcessBatch",
			func() error { return eng.ProcessBatch(outOfRange) },
			func() int64 { return int64(eng.Stats().OnesCount) }},
		{"durable Engine.Process",
			func() error { return eng.Process(outOfRange[1]) },
			func() int64 { return int64(eng.Stats().OnesCount) }},
		{"client.Client.Ingest",
			func() error { return hc.Ingest(ctx, outOfRange) },
			func() int64 { _ = hc.Flush(ctx); return requests.Load() }},
		{"client.Client.Send",
			func() error { _, _, err := hc.Send(ctx, outOfRange); return err },
			func() int64 { return requests.Load() }},
		{"client.UDPClient.Ingest",
			func() error { return uc.Ingest(ctx, outOfRange) },
			func() int64 { _ = uc.Flush(ctx); return int64(uc.Stats().FramesSent) }},
	}
	for _, tc := range cases {
		if err := tc.encode(); !errors.Is(err, vos.ErrUserRange) {
			t.Errorf("%s: error %v, want vos.ErrUserRange", tc.name, err)
		}
		if n := tc.written(); n != 0 {
			t.Errorf("%s: %d written past the refusal, want nothing", tc.name, n)
		}
	}

	// The in-process, memory-only shapes encode nothing and keep the range.
	sk := vos.MustNew(serviceSketchConfig())
	sk.ProcessBatch(outOfRange)
	if got := sk.Cardinality(1<<63 | 5); got != 1 {
		t.Errorf("memory-only sketch: cardinality of the large id = %d, want 1", got)
	}
	if got := sk.Cardinality(5); got != 0 {
		t.Errorf("memory-only sketch: user 5 has cardinality %d, want 0", got)
	}
	mem := vos.MustNewEngine(vos.EngineConfig{Sketch: serviceSketchConfig(), Shards: 2})
	defer mem.Close()
	if err := mem.ProcessBatch(outOfRange); err != nil {
		t.Errorf("memory-only engine refused the full range: %v", err)
	}
}

// TestDurableEngineUserRangeReopen: what a durable engine acknowledged is
// what its log replays into. The refused batch is in neither; before the
// refusal it was acknowledged under one user and replayed under another.
func TestDurableEngineUserRangeReopen(t *testing.T) {
	cfg := vos.EngineConfig{
		Sketch:     serviceSketchConfig(),
		Shards:     2,
		Durability: &vos.DurabilityConfig{DisableLock: true}, // the crash below is in process
	}
	dir := t.TempDir()
	accepted := engineTestStream(2_000, 40, 0.2, 9)
	accepted[0].User = vos.MaxUser // the largest id that fits must survive the log

	crashed, err := vos.OpenEngine(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := crashed.ProcessBatch(accepted[:1000]); err != nil {
		t.Fatal(err)
	}
	if err := crashed.ProcessBatch(outOfRange); !errors.Is(err, vos.ErrUserRange) {
		t.Fatalf("ProcessBatch: error %v, want vos.ErrUserRange", err)
	}
	if err := crashed.ProcessBatch(accepted[1000:]); err != nil {
		t.Fatal(err)
	}
	acknowledged, err := crashed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Hard stop: abandoned without Flush or Close.

	reopened, err := vos.OpenEngine(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	recovered, err := reopened.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	single := vos.MustNew(cfg.Sketch)
	single.ProcessBatch(accepted)
	want, err := single.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(acknowledged, want) {
		t.Error("the engine's state is not the accepted stream's")
	}
	if !bytes.Equal(recovered, acknowledged) {
		t.Error("the log replayed into a state that is not the one the engine acknowledged")
	}
}
