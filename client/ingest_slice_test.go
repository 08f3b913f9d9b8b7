package client_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/cluster"
	"github.com/vossketch/vos/internal/netproto"
	"github.com/vossketch/vos/internal/wal"
	"github.com/vossketch/vos/server"
)

var sliceTestSketch = vos.Config{MemoryBits: 1 << 22, SketchBits: 512, Seed: 7}

// sliceTestStream is inserts with a delete of an earlier edge now and then.
func sliceTestStream(n int) []vos.Edge {
	rng := rand.New(rand.NewSource(23))
	out := make([]vos.Edge, 0, n)
	for len(out) < n {
		if len(out) > 0 && rng.Intn(8) == 0 {
			e := out[rng.Intn(len(out))]
			if e.Op == vos.Insert {
				out = append(out, vos.Edge{User: e.User, Item: e.Item, Op: vos.Delete})
				continue
			}
		}
		out = append(out, vos.Edge{User: vos.User(rng.Intn(300)), Item: vos.Item(rng.Intn(1 << 20)), Op: vos.Insert})
	}
	return out
}

// TestIngestDoesNotKeepTheSlice holds the two remote implementations to
// SimilarityService.Ingest's rule — the slice is the caller's again when
// the call returns — as the root package's test of the same name holds the
// in-process ones: calls of uneven length, each slice filled with garbage
// the moment Ingest returns, and the far side's state compared with one
// sketch fed the logical stream. The HTTP client encodes whole batches
// where they lie in the caller's slice and the server decodes into pooled
// memory, so both ends of the request path are under it.
func TestIngestDoesNotKeepTheSlice(t *testing.T) {
	stream := sliceTestStream(20_000)
	single := vos.MustNew(sliceTestSketch)
	single.ProcessBatch(stream)
	want, err := single.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	type ingester interface {
		Ingest(context.Context, []vos.Edge) error
		Flush(context.Context) error
	}
	newEngine := func(t *testing.T) *vos.Engine {
		eng, err := vos.NewEngine(vos.EngineConfig{Sketch: sliceTestSketch, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	cases := map[string]func(*testing.T, *vos.Engine) ingester{
		"client.Client": func(t *testing.T, eng *vos.Engine) ingester {
			ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
			t.Cleanup(ts.Close)
			cl := client.New(ts.URL, client.Options{BatchSize: 64, Linger: -1})
			t.Cleanup(func() { cl.Close() })
			return cl
		},
		"client.UDPClient": func(t *testing.T, eng *vos.Engine) ingester {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			recv := netproto.NewReceiver(pc, netproto.Config{Sink: eng.ProcessBatch})
			done := make(chan error, 1)
			go func() { done <- recv.Run() }()
			t.Cleanup(func() {
				recv.Close()
				if err := <-done; err != nil {
					t.Errorf("receiver run: %v", err)
				}
			})
			// An ack to a frame keeps the sender a frame ahead of the
			// receiver at most: nothing is dropped at the socket.
			uc, err := client.NewUDP(recv.Addr().String(), client.UDPOptions{BatchSize: 64, AckEvery: 1, AckWindow: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { uc.Close() })
			return uc
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			eng := newEngine(t)
			svc := build(t, eng)
			ctx := context.Background()
			scratch := make([]vos.Edge, 0, 1500)
			for off, step := 0, 1; off < len(stream); step = step*3%1499 + 1 {
				call := append(scratch[:0], stream[off:min(off+step, len(stream))]...)
				off += len(call)
				if err := svc.Ingest(ctx, call); err != nil {
					t.Fatal(err)
				}
				for i := range call {
					call[i] = vos.Edge{User: 0xdead0000 + vos.User(i), Item: 0xbeef, Op: vos.Delete}
				}
			}
			if err := svc.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			got, err := eng.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("the far side's state is not the stream's: the slice was read after Ingest returned")
			}
		})
	}
}

// TestIngestRequestAllocBudget is the request path's allocation budget, so
// that a copy put back into it fails a test instead of a benchmark. One
// request of 1,024 edges, client.Client → server.New → NewEngineService over
// a durable 2-shard engine, costs 16.0 KB in 118 objects, none of them a copy
// of the edge slice (the engine partitions in pooled scratch onto batch
// buffers that cycle); six of them carry the answer's span headers (one
// string for both cursors, one slice for both values, and the client's parse
// of the two lines). With a partition buffer a request it was 61 KB in 118,
// and with the client's pending copy, a fresh decoded slice and a body read
// by doubling 143 KB in 137.
func TestIngestRequestAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("measures with testing.Benchmark; the race detector's own allocations would be counted")
	}
	const batch = 1024
	edges := sliceTestStream(batch)
	ctx := context.Background()

	t.Run("request", func(t *testing.T) {
		eng, err := vos.OpenEngine(t.TempDir(), vos.EngineConfig{Sketch: sliceTestSketch, Shards: 2,
			Durability: &vos.DurabilityConfig{Sync: wal.SyncOff}})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
		defer ts.Close()
		cl := client.New(ts.URL, client.Options{BatchSize: batch, Linger: -1, MaxRetries: -1})
		defer cl.Close()
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cl.Ingest(ctx, edges); err != nil {
					b.Fatal(err)
				}
			}
		})
		t.Logf("%d requests: %d B and %d objects a request", res.N, res.AllocedBytesPerOp(), res.AllocsPerOp())
		const maxBytes, maxObjects = 24 << 10, 120
		if res.AllocedBytesPerOp() > maxBytes || res.AllocsPerOp() > maxObjects {
			t.Errorf("a %d-edge request allocates %d B in %d objects; the budget is %d B and %d",
				batch, res.AllocedBytesPerOp(), res.AllocsPerOp(), maxBytes, maxObjects)
		}
	})

	// With nothing pending and a whole number of batches, Ingest copies no
	// edge: what it allocates is the encoded body and the request, which
	// together are smaller than the slice itself.
	t.Run("client copies no edges", func(t *testing.T) {
		ack := `{"accepted":` + "1024" + `}`
		cl := client.New("http://stub", client.Options{BatchSize: batch, Linger: -1, MaxRetries: -1,
			HTTPClient: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(ack))}, nil
			})}})
		defer cl.Close()
		three := append(append(append([]vos.Edge(nil), edges...), edges...), edges...)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := cl.Ingest(ctx, three); err != nil {
					b.Fatal(err)
				}
			}
		})
		sliceBytes := int64(len(three)) * 24
		t.Logf("%d calls of %d edges: %d B a call (the slice is %d B)", res.N, len(three), res.AllocedBytesPerOp(), sliceBytes)
		if res.AllocedBytesPerOp() >= sliceBytes {
			t.Errorf("Ingest of %d whole batches allocates %d B a call, as much as the %d B slice: it copied the edges",
				len(three)/batch, res.AllocedBytesPerOp(), sliceBytes)
		}
	})

	// The datagram client under the same rule: whole batches are framed where
	// they lie, into the one frame buffer the client keeps.
	t.Run("udp client copies no edges", func(t *testing.T) {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0") // nobody reads: sends succeed
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		uc, err := client.NewUDP(pc.LocalAddr().String(), client.UDPOptions{BatchSize: 256, AckEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer uc.Close()
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := uc.Ingest(ctx, edges); err != nil {
					b.Fatal(err)
				}
			}
		})
		sliceBytes := int64(len(edges)) * 24
		t.Logf("%d calls of %d edges: %d B a call (the slice is %d B)", res.N, len(edges), res.AllocedBytesPerOp(), sliceBytes)
		if res.AllocedBytesPerOp() >= sliceBytes {
			t.Errorf("Ingest of %d whole batches allocates %d B a call, as much as the %d B slice: it copied the edges",
				len(edges)/256, res.AllocedBytesPerOp(), sliceBytes)
		}
	})
}

// TestGatewayIngestAllocBudget is the gateway's own share of a write: one
// Ingest of 1,024 edges fanned out to 2 backends whose transport is a stub,
// so what is counted is the partition, the fan-out and the two clients'
// encoded bodies and requests. With the partition in pooled scratch and the
// last group sent on the caller's goroutine it is 12.2 KB in 60 objects; with a
// partition buffer made for every call and a goroutine a group it was 41.0 KB
// in 64.
func TestGatewayIngestAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("measures with testing.Benchmark; the race detector's own allocations would be counted")
	}
	edges := sliceTestStream(1024)
	ring := &cluster.Ring{Version: 1, RouteSeed: 7, Shards: []string{"http://b0", "http://b1"}}
	acks := map[string]string{}
	for i, group := range vos.PartitionByUser(edges, 2, ring.RouteSeed) {
		acks[ring.Shards[i][len("http://"):]] = `{"accepted":` + strconv.Itoa(len(group)) + `}`
	}
	gw, err := cluster.New(ring, cluster.Options{Client: client.Options{BatchSize: 1024, MaxRetries: -1,
		HTTPClient: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(acks[r.URL.Host]))}, nil
		})}}})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	ctx := context.Background()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := gw.Ingest(ctx, edges); err != nil {
				b.Fatal(err)
			}
		}
	})
	t.Logf("%d calls: %d B and %d objects a call", res.N, res.AllocedBytesPerOp(), res.AllocsPerOp())
	const maxBytes, maxObjects = 16 << 10, 62
	if res.AllocedBytesPerOp() > maxBytes || res.AllocsPerOp() > maxObjects {
		t.Errorf("a 1,024-edge 2-backend Gateway.Ingest allocates %d B in %d objects; the budget is %d B and %d",
			res.AllocedBytesPerOp(), res.AllocsPerOp(), maxBytes, maxObjects)
	}
}

// TestTopKRoundTripAllocBudget is the read path's allocation budget, beside
// the write path's: one Client.TopK of 16 candidates, n = 10, client plus
// server over loopback, with the request and the ranking written and read by
// the answer kernel (server/answerjson.go) — the request decoded into one
// candidates slice, the ranking appended in pooled bytes and scanned into one
// slice sized from the body, the response read into a buffer sized from its
// Content-Length — costs 13.7 KB in 119 objects, most of them net/http's.
// Through encoding/json at both ends, with the chunked response read by
// doubling, it was 21.9 KB in 145.
func TestTopKRoundTripAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("measures with testing.Benchmark; the race detector's own allocations would be counted")
	}
	eng, err := vos.NewEngine(vos.EngineConfig{Sketch: sliceTestSketch, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{Linger: -1, MaxRetries: -1})
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Ingest(ctx, sliceTestStream(4096)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	candidates := make([]vos.User, 16)
	for i := range candidates {
		candidates[i] = vos.User(i + 1)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			top, err := cl.TopK(ctx, 0, candidates, 10)
			if err != nil || len(top) != 10 {
				b.Fatalf("TopK: %d results, %v", len(top), err)
			}
		}
	})
	t.Logf("%d reads: %d B and %d objects a read", res.N, res.AllocedBytesPerOp(), res.AllocsPerOp())
	const maxBytes, maxObjects = 16 << 10, 136
	if res.AllocedBytesPerOp() > maxBytes || res.AllocsPerOp() > maxObjects {
		t.Errorf("a top 10 of 16 allocates %d B in %d objects; the budget is %d B and %d",
			res.AllocedBytesPerOp(), res.AllocsPerOp(), maxBytes, maxObjects)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
