package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/netproto"
	"github.com/vossketch/vos/internal/stream"
)

// startReceiver runs a netproto.Receiver on loopback, collecting every
// applied edge, and returns its address.
func startReceiver(t *testing.T) (addr string, edges func() []stream.Edge) {
	t.Helper()
	recv, edges := startCountingReceiver(t)
	return recv.Addr().String(), edges
}

// startCountingReceiver is startReceiver with the receiver itself, for its
// ledger.
func startCountingReceiver(t *testing.T) (recv *netproto.Receiver, edges func() []stream.Edge) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []stream.Edge
	recv = netproto.NewReceiver(pc, netproto.Config{
		Sink: func(batch []stream.Edge) error {
			mu.Lock()
			got = append(got, batch...)
			mu.Unlock()
			return nil
		},
	})
	done := make(chan error, 1)
	go func() { done <- recv.Run() }()
	t.Cleanup(func() {
		if err := recv.Close(); err != nil {
			t.Errorf("receiver close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("receiver run: %v", err)
		}
	})
	return recv, func() []stream.Edge {
		mu.Lock()
		defer mu.Unlock()
		return append([]stream.Edge(nil), got...)
	}
}

// TestUDPClientEndToEnd: edges buffered through Ingest and confirmed by
// Flush arrive at the receiver exactly once, in order, and the final ack
// reports a clean ledger.
func TestUDPClientEndToEnd(t *testing.T) {
	addr, edges := startReceiver(t)
	c, err := NewUDP(addr, UDPOptions{BatchSize: 8, AckEvery: 2, AckWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const n = 50
	sent := make([]vos.Edge, n)
	for i := range sent {
		sent[i] = vos.Edge{User: vos.User(i % 5), Item: vos.Item(i), Op: vos.Insert}
	}
	// Two Ingest calls exercise the partial-batch carry between them.
	if err := c.Ingest(ctx, sent[:13]); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(ctx, sent[13:]); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if !st.Acked {
		t.Fatal("Flush returned without an ack")
	}
	if st.LastAck.Gaps != 0 || st.LastAck.Replays != 0 {
		t.Fatalf("clean loopback delivery reported gaps=%d replays=%d", st.LastAck.Gaps, st.LastAck.Replays)
	}
	if st.EdgesSent != n {
		t.Fatalf("EdgesSent = %d, want %d", st.EdgesSent, n)
	}
	if st.AcksReceived == 0 || len(c.TakeRTTs()) == 0 {
		t.Fatalf("expected ack RTT samples, stats %+v", st)
	}

	got := edges()
	if len(got) != n {
		t.Fatalf("receiver applied %d edges, want %d", len(got), n)
	}
	for i, e := range got {
		if e != sent[i] {
			t.Fatalf("edge %d: got %+v, want %+v", i, e, sent[i])
		}
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(ctx, sent[:1]); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Ingest after Close = %v, want ErrClosed", err)
	}
	if err := c.Flush(ctx); !errors.Is(err, vos.ErrClosed) {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestUDPClientAckWindowOverflow: against a receiver that never answers,
// the outstanding-ack window fills, each further send abandons the oldest
// request after AckTimeout (counted, not deadlocked), and the closing
// Flush reports that delivery was never confirmed.
func TestUDPClientAckWindowOverflow(t *testing.T) {
	// A bound socket nobody reads: sends succeed, acks never come.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	c, err := NewUDP(pc.LocalAddr().String(), UDPOptions{
		BatchSize:  1,
		AckEvery:   1,
		AckWindow:  1,
		AckTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := c.Ingest(ctx, []vos.Edge{{User: 1, Item: vos.Item(i), Op: vos.Insert}}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.FramesSent != 3 {
		t.Fatalf("FramesSent = %d, want 3 (abandonment must not block sends)", st.FramesSent)
	}
	// Frames 1 and 2 each found the 1-slot window full and abandoned the
	// previous request.
	if st.AcksAbandoned != 2 {
		t.Fatalf("AcksAbandoned = %d, want 2", st.AcksAbandoned)
	}
	err = c.Close()
	if err == nil || !strings.Contains(err.Error(), "no ack") {
		t.Fatalf("Close against a silent receiver = %v, want unconfirmed-delivery error", err)
	}
}

// TestUDPFlushKeepsEdgesItNeverSent: a Flush that fails before its frame
// reaches the socket — here a cancelled ctx while the ack window is full —
// leaves the residue buffered, as Ingest does on the same failure, and the
// next Flush ships it.
func TestUDPFlushKeepsEdgesItNeverSent(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0") // sends succeed, acks never come
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	c, err := NewUDP(pc.LocalAddr().String(), UDPOptions{
		BatchSize:  2,
		AckEvery:   1,
		AckWindow:  1,
		AckTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One full frame takes the only ack slot; the third edge stays buffered.
	three := []vos.Edge{{User: 1, Item: 1, Op: vos.Insert}, {User: 1, Item: 2, Op: vos.Insert}, {User: 1, Item: 3, Op: vos.Insert}}
	if err := c.Ingest(context.Background(), three); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Flush(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Flush under a cancelled ctx = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.EdgesSent != 2 {
		t.Fatalf("EdgesSent = %d after the refused Flush, want 2", st.EdgesSent)
	}
	// The silent receiver still fails the confirmation, but only after the
	// abandoned slot let the residue out.
	if err := c.Flush(context.Background()); err == nil || !strings.Contains(err.Error(), "no ack") {
		t.Fatalf("Flush against a silent receiver = %v, want unconfirmed-delivery error", err)
	}
	if st := c.Stats(); st.EdgesSent != 3 {
		t.Fatalf("EdgesSent = %d: the refused Flush dropped the edge it never sent", st.EdgesSent)
	}
}

// TestUDPClientAcksDisabled: AckEvery < 0 turns the client into pure
// fire-and-forget — no ack goroutine, Flush returns without waiting, and
// edges still arrive.
func TestUDPClientAcksDisabled(t *testing.T) {
	addr, edges := startReceiver(t)
	c, err := NewUDP(addr, UDPOptions{BatchSize: 4, AckEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sent := make([]vos.Edge, 10)
	for i := range sent {
		sent[i] = vos.Edge{User: 7, Item: vos.Item(i), Op: vos.Insert}
	}
	if err := c.Ingest(ctx, sent); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.AcksRequested != 0 || st.Acked {
		t.Fatalf("acks disabled but stats show %+v", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(edges()) < len(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("receiver applied %d of %d edges", len(edges()), len(sent))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// failingConn fails its n-th Write (counting from 1): with deliver the
// datagram goes out first, as a UDP socket reports an earlier datagram's ICMP
// error on a later send; without, it is lost.
type failingConn struct {
	net.Conn
	n       int
	deliver bool
	writes  int
}

var errWriteFailed = errors.New("write failed")

func (f *failingConn) Write(p []byte) (int, error) {
	if f.writes++; f.writes != f.n {
		return f.Conn.Write(p)
	}
	if f.deliver {
		if _, err := f.Conn.Write(p); err != nil {
			return 0, err
		}
	}
	return 0, errWriteFailed
}

// TestUDPFailedWriteIsNeverSentAgain: a frame whose socket write was
// attempted and failed is in the ambiguous state of any failed send — it may
// have arrived — so neither Ingest nor Flush ships it again, and its sequence
// number is spent: the receiver applies every other edge exactly once, the
// failed frame's once if it did arrive, and drops nothing as a replay.
func TestUDPFailedWriteIsNeverSentAgain(t *testing.T) {
	const batch, n = 4, 30 // seven whole frames and a residue of two
	sent := make([]vos.Edge, n)
	for i := range sent {
		sent[i] = vos.Edge{User: vos.User(i % 3), Item: vos.Item(i), Op: vos.Insert}
	}
	for _, tc := range []struct {
		name     string
		failAt   int // which socket write fails
		lostFrom int // the failed frame's first edge
		lostTo   int
	}{
		{"Ingest, first frame of a call", 1, 0, 4},
		{"Ingest, a pending batch topped up", 4, 12, 16}, // the second call's first frame: three pending, one new
		{"Ingest, mid-call", 6, 20, 24},
		{"Flush, the residue", 8, 28, 30},
	} {
		for _, deliver := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/delivered=%v", tc.name, deliver), func(t *testing.T) {
				recv, edges := startCountingReceiver(t)
				c, err := NewUDP(recv.Addr().String(), UDPOptions{BatchSize: batch, AckEvery: -1}) // no ack reader: conn is ours to wrap
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				c.conn = &failingConn{Conn: c.conn, n: tc.failAt, deliver: deliver}
				ctx := context.Background()
				failures := 0
				for _, call := range [][]vos.Edge{sent[:15], sent[15:]} {
					if err := c.Ingest(ctx, call); errors.Is(err, errWriteFailed) {
						failures++
					} else if err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 2; i++ { // the second finds nothing the first left behind
					if err := c.Flush(ctx); errors.Is(err, errWriteFailed) {
						failures++
					} else if err != nil {
						t.Fatal(err)
					}
				}
				if failures != 1 {
					t.Fatalf("%d calls reported the failed write, want 1", failures)
				}
				want := append([]vos.Edge(nil), sent...)
				if !deliver {
					want = append(want[:tc.lostFrom], want[tc.lostTo:]...)
				}
				deadline := time.Now().Add(5 * time.Second)
				for len(edges()) < len(want) && time.Now().Before(deadline) {
					time.Sleep(2 * time.Millisecond)
				}
				time.Sleep(20 * time.Millisecond) // a frame sent twice would still be on its way
				got := edges()
				if len(got) != len(want) {
					t.Fatalf("receiver applied %d edges, want %d (the failed frame is %v)", len(got), len(want), sent[tc.lostFrom:tc.lostTo])
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("edge %d: receiver applied %+v, want %+v", i, got[i], want[i])
					}
				}
				if st := recv.Stats(); st.ReplaysDropped != 0 || st.StaleDropped != 0 {
					t.Fatalf("the receiver dropped a frame it had seen the sequence number of: %+v", st)
				}
			})
		}
	}
}
