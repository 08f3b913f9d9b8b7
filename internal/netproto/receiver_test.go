package netproto

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/admit"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/metrics"
	"github.com/vossketch/vos/internal/stream"
)

// collectSink is a thread-safe Sink recording applied batches.
type collectSink struct {
	mu    sync.Mutex
	edges []stream.Edge
	fail  bool
}

func (c *collectSink) sink(edges []stream.Edge) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail {
		return errors.New("sink rejecting")
	}
	c.edges = append(c.edges, edges...)
	return nil
}

func (c *collectSink) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.edges)
}

// startReceiver binds a loopback receiver and returns it plus a dialed
// sender conn. Cleanup closes both and verifies Run exited cleanly.
func startReceiver(t *testing.T, cfg Config) (*Receiver, net.Conn) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenPacket: %v", err)
	}
	r := NewReceiver(pc, cfg)
	runErr := make(chan error, 1)
	go func() { runErr <- r.Run() }()
	conn, err := net.Dial("udp", r.Addr().String())
	if err != nil {
		pc.Close()
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() {
		conn.Close()
		if err := r.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-runErr; err != nil {
			t.Errorf("Run returned %v after Close, want nil", err)
		}
		// Idempotent: a second Close must not block or error.
		if err := r.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	})
	return r, conn
}

// waitFor polls cond until it holds or the deadline passes. UDP delivery
// is asynchronous even on loopback, so counter assertions must wait.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func send(t *testing.T, conn net.Conn, session, seq uint64, flags uint16, edges []stream.Edge) {
	t.Helper()
	frame, err := AppendDataFrame(nil, session, seq, flags, edges)
	if err != nil {
		t.Fatalf("AppendDataFrame: %v", err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("Write: %v", err)
	}
}

func TestReceiverAppliesAndAcks(t *testing.T) {
	sink := &collectSink{}
	r, conn := startReceiver(t, Config{Sink: sink.sink})

	edges := testEdges(30)
	send(t, conn, 1, 0, 0, edges[:10])
	send(t, conn, 1, 1, 0, edges[10:20])
	send(t, conn, 1, 2, FlagAckRequest, edges[20:])

	// The ack answers only after all three frames were handled in order.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, MaxFrameSize)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("reading ack: %v", err)
	}
	f, err := DecodeFrame(buf[:n])
	if err != nil {
		t.Fatalf("decoding ack: %v", err)
	}
	ack, err := f.DecodeAck()
	if err != nil {
		t.Fatalf("DecodeAck: %v", err)
	}
	if ack.Session != 1 || ack.EchoSeq != 2 || ack.Highest != 2 || ack.Applied != 3 || ack.Gaps != 0 || ack.Replays != 0 {
		t.Fatalf("ack: %+v", ack)
	}

	if got := sink.total(); got != 30 {
		t.Fatalf("sink saw %d edges, want 30", got)
	}
	sink.mu.Lock()
	for i, e := range sink.edges {
		if e != edges[i] {
			t.Fatalf("edge %d: got %+v want %+v (order or content lost)", i, e, edges[i])
		}
	}
	sink.mu.Unlock()

	// The receiver counts an ack after writing it, so the ack can be read
	// here before it is counted.
	waitFor(t, "the ack to be counted", func() bool { return r.Stats().AcksSent == 1 })
	st := r.Stats()
	if st.FramesReceived != 3 || st.FramesApplied != 3 || st.EdgesApplied != 30 || st.AcksSent != 1 || st.Sessions != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if !st.Clean() {
		t.Fatalf("clean delivery not Clean(): %+v", st)
	}
}

func TestReceiverReplayAndMalformed(t *testing.T) {
	sink := &collectSink{}
	r, conn := startReceiver(t, Config{Sink: sink.sink})

	edges := testEdges(4)
	send(t, conn, 9, 0, 0, edges)
	send(t, conn, 9, 0, 0, edges) // replayed datagram: must not double-apply
	if _, err := conn.Write([]byte("not a VOSSTRM1 frame at all....")); err != nil {
		t.Fatal(err)
	}
	// An ack frame arriving at the receiver is also malformed traffic.
	if _, err := conn.Write(AppendAckFrame(nil, Ack{Session: 9})); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "4 frames received", func() bool { return r.Stats().FramesReceived == 4 })

	st := r.Stats()
	if st.FramesApplied != 1 || st.ReplaysDropped != 1 || st.Malformed != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if sink.total() != 4 {
		t.Fatalf("sink saw %d edges, want 4 (replay must not re-apply)", sink.total())
	}
	if st.Clean() {
		t.Fatal("replays and malformed frames must not report Clean()")
	}
}

func TestReceiverAdmitRejectSurfacesAsGap(t *testing.T) {
	sink := &collectSink{}
	// A batch cap of 8 bytes rejects any frame carrying a handful of edges.
	ctrl := admit.NewController(8, 1024)
	r, conn := startReceiver(t, Config{Sink: sink.sink, Admit: ctrl})

	send(t, conn, 3, 0, 0, testEdges(1)) // ~2 payload bytes: admitted
	send(t, conn, 3, 1, 0, testEdges(8)) // over the cap: shed
	waitFor(t, "2 frames received", func() bool { return r.Stats().FramesReceived == 2 })

	st := r.Stats()
	if st.AdmitRejected != 1 || st.FramesApplied != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if ctrl.InFlightBytes() != 0 {
		t.Fatalf("admission bytes leaked: %d held", ctrl.InFlightBytes())
	}

	// The shed frame never reached the tracker, so its sequence is a hole;
	// once the window slides past it, it confirms as a gap the sender can
	// see — shedding is visible loss, not silent loss.
	send(t, conn, 3, 1+WindowSize+1, 0, testEdges(1))
	waitFor(t, "gap confirmation", func() bool { return r.Stats().GapsDetected >= 1 })
}

func TestReceiverSinkError(t *testing.T) {
	sink := &collectSink{fail: true}
	r, conn := startReceiver(t, Config{Sink: sink.sink})
	send(t, conn, 2, 0, 0, testEdges(3))
	waitFor(t, "sink error", func() bool { return r.Stats().SinkErrors == 1 })
	if st := r.Stats(); st.FramesApplied != 0 || st.EdgesApplied != 0 {
		t.Fatalf("refused batch counted applied: %+v", st)
	}
}

func TestReceiverStatsMergesTrackerLedger(t *testing.T) {
	sink := &collectSink{}
	r, conn := startReceiver(t, Config{Sink: sink.sink, MaxSessions: 1})
	send(t, conn, 1, 0, 0, testEdges(1))
	send(t, conn, 2, 0, 0, testEdges(1)) // evicts session 1
	waitFor(t, "2 frames", func() bool { return r.Stats().FramesReceived == 2 })
	st := r.Stats()
	if st.Sessions != 1 || st.SessionsEvicted != 1 {
		t.Fatalf("session accounting: %+v", st)
	}
	var _ metrics.UDPStats = st
}

// TestReceiverFaultPlan drives a deterministic drop/duplicate/reorder plan
// through a real loopback socket, as a send order over sequence numbers:
//
//	seq%10 == 7  never sent                 → must confirm as a gap
//	seq%10 == 3  sent twice, back to back   → the second copy is a replay
//	seq%10 == 5  swapped with its successor → the predecessor applies late
//
// The three residues never collide, and a swap's successor (seq%10 == 6)
// is itself never dropped or duplicated, so every counter has one exact
// expected value: undetected loss, a double apply or a miscounted fault
// all fail here. The sink's sketch must then be byte-identical to one fed
// every sent batch once — ascending order will do, XOR toggles commute,
// which is why applying a late frame is sound at all.
func TestReceiverFaultPlan(t *testing.T) {
	const batch = 64
	edges := make([]stream.Edge, 94*batch)
	for i := range edges {
		edges[i] = stream.Edge{User: stream.User(i % 97), Item: stream.Item(i), Op: stream.Insert}
		if i%5 == 4 && i >= 97 {
			// The same user's insert from 97 edges ago (97%5 == 2, so that
			// one was not itself a delete).
			edges[i] = stream.Edge{User: stream.User(i % 97), Item: stream.Item(i - 97), Op: stream.Delete}
		}
	}
	frames := uint64(len(edges) / batch)
	payload := func(seq uint64) []stream.Edge {
		if seq >= frames {
			return nil // trailer
		}
		return edges[seq*batch : (seq+1)*batch]
	}

	var order []uint64
	var drops, dups, swaps uint64
	for seq := uint64(0); seq < frames; seq++ {
		switch seq % 10 {
		case 7:
			drops++
		case 3:
			order = append(order, seq, seq)
			dups++
		case 5: // never the last frame: frames%10 == 4
			order = append(order, seq+1, seq)
			swaps++
		case 6:
			// Already sent ahead of seq-1 by the swap above.
		default:
			order = append(order, seq)
		}
	}
	// Empty trailer frames push every dropped sequence out of the reorder
	// window, so its loss is confirmed, not still pending.
	for i := uint64(0); i < WindowSize+2; i++ {
		order = append(order, frames+i)
	}

	cfg := core.Config{MemoryBits: 1 << 16, SketchBits: 256, Seed: 7}
	want := core.MustNew(cfg)
	wantFrames, wantEdges := uint64(WindowSize+2), uint64(0)
	for seq := uint64(0); seq < frames; seq++ {
		if seq%10 != 7 {
			want.ProcessBatch(payload(seq))
			wantFrames++
			wantEdges += batch
		}
	}

	var mu sync.Mutex
	got := core.MustNew(cfg)
	r, conn := startReceiver(t, Config{Sink: func(b []stream.Edge) error {
		mu.Lock()
		defer mu.Unlock()
		got.ProcessBatch(b)
		return nil
	}})
	for i, seq := range order {
		send(t, conn, 0x1CDE2019, seq, 0, payload(seq))
		if sent := uint64(i + 1); sent%16 == 0 || i == len(order)-1 {
			// Stay below the socket buffer: loss the plan did not inject
			// would fail the exact counts below for the wrong reason.
			waitFor(t, "sent frames to arrive", func() bool { return r.Stats().FramesReceived == sent })
		}
	}
	// FramesApplied is the last counter a frame touches, and the last
	// frame sent is a trailer, which applies.
	waitFor(t, "the last frame to apply", func() bool { return r.Stats().FramesApplied >= wantFrames })

	st := r.Stats()
	if st.GapsDetected != drops || st.ReplaysDropped != dups || st.LateApplied != swaps {
		t.Errorf("injected %d drops, %d duplicates, %d reorders; ledger has gaps=%d replays=%d late=%d",
			drops, dups, swaps, st.GapsDetected, st.ReplaysDropped, st.LateApplied)
	}
	if st.FramesApplied != wantFrames || st.EdgesApplied != wantEdges {
		t.Errorf("applied %d edges in %d frames, want %d in %d", st.EdgesApplied, st.FramesApplied, wantEdges, wantFrames)
	}
	if st.Malformed != 0 || st.AdmitRejected != 0 || st.SinkErrors != 0 {
		t.Errorf("faults outside the plan: %+v", st)
	}
	mu.Lock()
	gotBytes, err := got.MarshalBinary()
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Error("sink sketch differs from a sketch fed every sent batch once")
	}
}
