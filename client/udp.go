package client

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/netproto"
	"github.com/vossketch/vos/internal/stream"
)

// UDPOptions tunes a UDPClient. The zero value selects the defaults.
type UDPOptions struct {
	// BatchSize is how many edges Ingest buffers per frame. Default 256
	// (~0.5-2.5 KiB on the wire, under a common MTU at typical ids).
	BatchSize int
	// AckEvery requests a delivery ack every N data frames (default 16;
	// negative disables acks entirely). Acks double as flow control: at
	// most AckWindow requests ride unacknowledged, so the sender can
	// never be more than AckEvery*AckWindow frames ahead of the receiver
	// — which is what keeps a fast sender from overrunning socket
	// buffers even on loopback.
	AckEvery int
	// AckWindow is the outstanding-ack bound (default 4). When it is
	// full, sends block until an ack arrives or AckTimeout passes; on
	// timeout the oldest outstanding request is abandoned (counted in
	// Stats) so a dead receiver degrades to fire-and-forget instead of
	// deadlocking the sender.
	AckWindow int
	// AckTimeout bounds ack waits (window space and Flush confirmation).
	// Default 2s.
	AckTimeout time.Duration
}

func (o UDPOptions) withDefaults() UDPOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = 256
	}
	if o.AckEvery == 0 {
		o.AckEvery = 16
	} else if o.AckEvery < 0 {
		o.AckEvery = 0
	}
	if o.AckWindow <= 0 {
		o.AckWindow = 4
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 2 * time.Second
	}
	return o
}

// UDPClientStats is a UDPClient's send-side ledger.
type UDPClientStats struct {
	FramesSent uint64
	EdgesSent  uint64
	// AcksRequested / AcksReceived / AcksAbandoned describe the windowed
	// ack exchange; Abandoned counts requests dropped after AckTimeout to
	// keep the window bounded.
	AcksRequested uint64
	AcksReceived  uint64
	AcksAbandoned uint64
	// LastAck is the most recent (highest-covering) ack: compare its
	// Gaps/Replays against zero to know whether everything sent so far
	// landed exactly once.
	LastAck netproto.Ack
	// Acked reports whether any ack has arrived yet (LastAck is zero
	// until then).
	Acked bool
}

// maxRTTSamples bounds the retained ack round-trip samples.
const maxRTTSamples = 1 << 20

// UDPClient ships edges to a vosd UDP listener over the VOSSTRM1 datagram
// protocol — the fire-and-forget ingest tier. Unlike Client it answers no
// queries: UDP is write-only, and callers pair it with an HTTP Client for
// reads. Delivery is not guaranteed; it is *accounted*: sequence numbers
// let the receiver detect every lost, reordered, or replayed frame, and
// the windowed acks (see UDPOptions.AckEvery) report that ledger back, so
// a sender always knows whether the remote sketch still matches what it
// sent. Safe for concurrent use. Close when done.
type UDPClient struct {
	conn net.Conn
	opt  UDPOptions
	// session identifies this sender to the receiver's sequence tracker: a
	// random id minted per client, because the receiver treats a reused id
	// whose sequence restarted as stale traffic and drops it.
	session uint64

	mu        sync.Mutex
	pend      []vos.Edge
	buf       []byte
	seq       uint64
	st        UDPClientStats
	pending   map[uint64]time.Time // outstanding ack requests: seq → send time
	rtts      []time.Duration
	ackNotify chan struct{}
	closed    bool

	wg sync.WaitGroup
}

// NewUDP creates a UDPClient for the vosd datagram listener at addr
// (e.g. "host:9090").
func NewUDP(addr string, opt UDPOptions) (*UDPClient, error) {
	var session [8]byte
	if _, err := crand.Read(session[:]); err != nil {
		return nil, fmt.Errorf("client: reading random session id: %w", err)
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	c := &UDPClient{
		conn:      conn,
		opt:       opt.withDefaults(),
		session:   binary.LittleEndian.Uint64(session[:]),
		pending:   make(map[uint64]time.Time),
		ackNotify: make(chan struct{}),
	}
	if c.opt.AckEvery > 0 {
		c.wg.Add(1)
		go c.readAcks()
	}
	return c, nil
}

// Ingest ships every full BatchSize chunk as one data frame and buffers the
// residue. Frames are never retried (an XOR batch must not risk double
// application): a send error reports the frame that failed, which is not sent
// again if it reached the socket, with everything not yet framed still
// buffered. The slice stays the caller's. With nothing pending its whole
// batches are framed where they lie; what is copied is the head that tops a
// pending batch up, the residue and, after an error, the rest of the call. A
// user id the element encoding cannot carry (stream.ErrUserRange) refuses it
// whole, nothing buffered.
func (c *UDPClient) Ingest(ctx context.Context, edges []vos.Edge) error {
	if err := stream.CheckUsers(edges); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return vos.ErrClosed
	}
	// What is pending goes first, topped up to whole batches (more than one
	// after an error kept the rest of its call), and out of the buffer, as in
	// Flush: a concurrent call must not frame it while shipLocked waits.
	var own []vos.Edge
	if len(c.pend) > 0 {
		size := c.opt.BatchSize
		head := min((size-len(c.pend)%size)%size, len(edges))
		own, c.pend = append(c.pend, edges[:head]...), nil
		edges = edges[head:]
	}
	own, err := c.framesLocked(ctx, own)
	if err == nil {
		edges, err = c.framesLocked(ctx, edges)
	}
	// Kept, oldest first: the rest of what was pending, the rest of this call,
	// what a concurrent call buffered meanwhile.
	if len(own)+len(edges) > 0 {
		c.pend = append(append(own, edges...), c.pend...)
	}
	return err
}

// framesLocked ships edges' whole batches, a frame each, and returns what it
// did not: the residue shorter than a batch or, with an error, everything from
// the failed frame on — after it, if that frame reached the socket.
func (c *UDPClient) framesLocked(ctx context.Context, edges []vos.Edge) ([]vos.Edge, error) {
	for size := c.opt.BatchSize; len(edges) >= size; edges = edges[size:] {
		if wrote, err := c.shipLocked(ctx, edges[:size], false); err != nil {
			if wrote {
				edges = edges[size:]
			}
			return edges, err
		}
	}
	return edges, nil
}

// Flush ships the buffered partial batch and — when acks are enabled —
// confirms delivery: a final ack-requesting frame (zero-edge if nothing
// is buffered) is sent and Flush blocks until the receiver's ack covers
// it or AckTimeout passes. After a nil return, Stats().LastAck reflects
// everything sent so far; its Gaps/Replays are the caller's loss check.
func (c *UDPClient) Flush(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return vos.ErrClosed
	}
	if len(c.pend) > 0 {
		// Out of the buffer while shipLocked may drop mu to wait for an ack
		// slot: a concurrent Ingest must not frame these edges as well.
		batch := c.pend
		c.pend = nil
		if wrote, err := c.shipLocked(ctx, batch, c.opt.AckEvery > 0); err != nil {
			if !wrote {
				// Never sent: still buffered, as after a failed Ingest, ahead
				// of whatever arrived meanwhile.
				c.pend = append(batch, c.pend...)
			}
			return err
		}
	}
	if c.opt.AckEvery == 0 || c.st.FramesSent == 0 {
		return nil
	}
	// Confirm with a zero-edge ping unless the frame just shipped already
	// asked: the receiver observes its sequence and answers the ledger.
	last := c.seq - 1
	if _, outstanding := c.pending[last]; !outstanding {
		if _, err := c.shipLocked(ctx, nil, true); err != nil {
			return err
		}
		last = c.seq - 1
	}
	return c.waitAckedLocked(ctx, last)
}

// Close flushes (best-effort delivery confirmation included) and closes
// the socket. The client is unusable afterwards.
func (c *UDPClient) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), c.opt.AckTimeout)
	defer cancel()
	flushErr := c.Flush(ctx)
	if errors.Is(flushErr, context.DeadlineExceeded) {
		// The deadline is Close's own, and every wait under it is a wait
		// for an ack; which of the two AckTimeout clocks fired first is
		// scheduling, not something the caller can act on.
		flushErr = fmt.Errorf("client: no ack within %v of Close: %w", c.opt.AckTimeout, flushErr)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	closeErr := c.conn.Close()
	c.wg.Wait()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Stats snapshots the send-side counters.
func (c *UDPClient) Stats() UDPClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// TakeRTTs drains the collected ack round-trip samples (each one data
// frame's send→ack latency) — the soak harness's p99 ingest latency feed.
func (c *UDPClient) TakeRTTs() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.rtts
	c.rtts = nil
	return out
}

// shipLocked frames and sends one batch under mu. forceAck requests an
// ack regardless of the AckEvery cadence. wrote reports whether the frame
// reached the socket: an error before that (no ack slot before ctx ended, an
// encode refusal) has sent nothing.
func (c *UDPClient) shipLocked(ctx context.Context, edges []vos.Edge, forceAck bool) (wrote bool, err error) {
	ackReq := forceAck || (c.opt.AckEvery > 0 && c.st.FramesSent%uint64(c.opt.AckEvery) == 0)
	if ackReq {
		if err := c.reserveAckSlotLocked(ctx); err != nil {
			return false, err
		}
	}
	var flags uint16
	if ackReq {
		flags = netproto.FlagAckRequest
	}
	frame, err := netproto.AppendDataFrame(c.buf[:0], c.session, c.seq, flags, edges)
	if err != nil {
		return false, err
	}
	c.buf = frame
	if _, err := c.conn.Write(frame); err != nil {
		// The frame may be on its way: its sequence number is spent, so that
		// the next frame is not dropped as a replay of it, and shows as a gap
		// if it is not.
		c.seq++
		return true, err
	}
	if ackReq {
		c.pending[c.seq] = time.Now()
		c.st.AcksRequested++
	}
	c.seq++
	c.st.FramesSent++
	c.st.EdgesSent += uint64(len(edges))
	return true, nil
}

// reserveAckSlotLocked blocks (dropping mu while waiting) until the
// outstanding-ack window has room. On AckTimeout the oldest outstanding
// request is abandoned: bounded sender state and forward progress beat
// waiting forever on a dead receiver.
func (c *UDPClient) reserveAckSlotLocked(ctx context.Context) error {
	for len(c.pending) >= c.opt.AckWindow {
		ch := c.ackNotify
		timer := time.NewTimer(c.opt.AckTimeout)
		c.mu.Unlock()
		select {
		case <-ch:
			timer.Stop()
			c.mu.Lock()
		case <-ctx.Done():
			timer.Stop()
			c.mu.Lock()
			return ctx.Err()
		case <-timer.C:
			c.mu.Lock()
			if len(c.pending) >= c.opt.AckWindow {
				oldest, first := uint64(0), true
				for s := range c.pending {
					// Serial-number order: the smallest outstanding seq.
					if first || s-oldest >= 1<<63 {
						oldest, first = s, false
					}
				}
				delete(c.pending, oldest)
				c.st.AcksAbandoned++
			}
		}
	}
	return nil
}

// waitAckedLocked blocks (dropping mu while waiting) until the last ack
// covers seq, the context ends, or AckTimeout passes.
func (c *UDPClient) waitAckedLocked(ctx context.Context, seq uint64) error {
	timer := time.NewTimer(c.opt.AckTimeout)
	defer timer.Stop()
	for {
		if c.st.Acked && c.st.LastAck.Highest-seq < 1<<63 {
			return nil
		}
		ch := c.ackNotify
		c.mu.Unlock()
		select {
		case <-ch:
			c.mu.Lock()
		case <-ctx.Done():
			c.mu.Lock()
			return ctx.Err()
		case <-timer.C:
			c.mu.Lock()
			return fmt.Errorf("client: no ack covering frame %d within %v", seq, c.opt.AckTimeout)
		}
	}
}

// readAcks drains ack frames off the socket until Close.
func (c *UDPClient) readAcks() {
	defer c.wg.Done()
	buf := make([]byte, netproto.HeaderSize+64)
	for {
		n, err := c.conn.Read(buf)
		if err != nil {
			return
		}
		f, err := netproto.DecodeFrame(buf[:n])
		if err != nil || f.Type != netproto.TypeAck {
			continue
		}
		ack, err := f.DecodeAck()
		if err != nil || ack.Session != c.session {
			continue
		}
		c.mu.Lock()
		if t0, ok := c.pending[ack.EchoSeq]; ok {
			delete(c.pending, ack.EchoSeq)
			if len(c.rtts) < maxRTTSamples {
				c.rtts = append(c.rtts, time.Since(t0))
			}
		}
		c.st.AcksReceived++
		if !c.st.Acked || ack.Highest-c.st.LastAck.Highest < 1<<63 {
			c.st.LastAck = ack
			c.st.Acked = true
		}
		close(c.ackNotify)
		c.ackNotify = make(chan struct{})
		c.mu.Unlock()
	}
}
