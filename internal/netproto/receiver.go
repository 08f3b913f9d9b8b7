package netproto

import (
	"errors"
	"net"
	"sync"

	"github.com/vossketch/vos/internal/admit"
	"github.com/vossketch/vos/internal/metrics"
	"github.com/vossketch/vos/internal/stream"
)

// Config tunes a Receiver. Sink is required; everything else defaults.
type Config struct {
	// Sink receives each applied batch, in arrival order. It is called
	// from the receive loop, one batch at a time — a sharded engine's
	// ProcessBatch hands off to per-shard queues quickly, so the loop
	// stays ahead of the socket for realistic loads. The slice is the
	// receiver's again when Sink returns — the next frame is decoded into
	// the same memory — so Sink must not keep it
	// (vos.SimilarityService.Ingest's rule, which is what vosd plugs in).
	Sink func(edges []stream.Edge) error
	// Admit, when non-nil, charges each frame's worst-case decoded
	// footprint against the shared ingest budget before decoding —
	// typically the same admit.Controller the HTTP handlers use, making
	// the budget process-wide. A rejected frame is dropped (and counted);
	// its sender sees it as a gap.
	Admit *admit.Controller
	// MaxSessions bounds the per-session state table (default 1024).
	MaxSessions int
}

// Receiver drives the VOSSTRM1 datagram ingest plane over one
// net.PacketConn: read, validate, admit, sequence-check, apply, ack.
// Create with NewReceiver, then call Run (it blocks); Close stops the
// loop and waits for the in-flight frame to finish applying, which is
// what makes vosd's shutdown drain-aware on the UDP side.
type Receiver struct {
	pc  net.PacketConn
	cfg Config

	mu  sync.Mutex
	trk *Tracker
	st  metrics.UDPStats // transport-level counters; seq counters live in trk

	// Run's goroutine alone touches these: the memory each frame is decoded
	// into and each ack encoded into, reused from one datagram to the next
	// (a frame is at most MaxFrameSize, so neither outgrows ~1 MiB).
	edges  []stream.Edge
	ackBuf []byte

	closeOnce sync.Once
	closeErr  error
	done      chan struct{}
}

// NewReceiver builds a Receiver over pc. The caller owns pc's lifetime
// only until Close, which closes it.
func NewReceiver(pc net.PacketConn, cfg Config) *Receiver {
	if cfg.Sink == nil {
		panic("netproto: Receiver requires a Sink")
	}
	return &Receiver{
		pc:   pc,
		cfg:  cfg,
		trk:  NewTracker(cfg.MaxSessions),
		done: make(chan struct{}),
	}
}

// Addr returns the bound address (useful with a ":0" listener).
func (r *Receiver) Addr() net.Addr { return r.pc.LocalAddr() }

// Run reads datagrams until the conn is closed, returning nil after
// Close (any other read error is returned). Call it from one goroutine.
func (r *Receiver) Run() error {
	defer close(r.done)
	buf := make([]byte, MaxFrameSize+1)
	for {
		n, from, err := r.pc.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		r.handle(buf[:n], from)
	}
}

// Close stops the receive loop (closing the conn) and waits for the
// frame being applied, if any, to finish. Idempotent.
func (r *Receiver) Close() error {
	r.closeOnce.Do(func() {
		r.closeErr = r.pc.Close()
		<-r.done
	})
	return r.closeErr
}

// Stats snapshots the plane's counters: the receiver's transport-level
// counts merged with the tracker's sequence ledger.
func (r *Receiver) Stats() metrics.UDPStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	tot := r.trk.Totals()
	st.GapsDetected = tot.Gaps
	st.ReplaysDropped = tot.Replays
	st.StaleDropped = tot.Stale
	st.LateApplied = tot.Late
	st.Sessions = r.trk.Sessions()
	st.SessionsEvicted = r.trk.Evicted()
	return st
}

// handle processes one datagram. Counter writes happen under mu so Stats
// can be polled from other goroutines; the sink itself runs unlocked.
func (r *Receiver) handle(data []byte, from net.Addr) {
	r.mu.Lock()
	r.st.FramesReceived++
	r.mu.Unlock()

	f, err := DecodeFrame(data)
	if err != nil || f.Type != TypeData {
		// Acks (or future types) arriving at a receiver are as wrong as a
		// truncated frame; neither is silently ignored.
		r.count(func(st *metrics.UDPStats) { st.Malformed++ })
		return
	}

	// Admission before decoding: the worst-case charge bounds the decoded
	// slice about to be allocated. A shed frame never touches the tracker,
	// so its sequence later surfaces as a gap — shedding is loss, and the
	// protocol's job is to make loss visible, not to hide it.
	var hold *admit.Hold
	if r.cfg.Admit != nil {
		h, err := r.cfg.Admit.Admit(int64(len(f.Payload)), true)
		if err != nil {
			r.count(func(st *metrics.UDPStats) { st.AdmitRejected++ })
			return
		}
		hold = h
		defer hold.Close()
	}

	edges, err := f.DecodeEdgesInto(r.edges)
	if err != nil {
		r.count(func(st *metrics.UDPStats) { st.Malformed++ })
		return
	}
	r.edges = edges
	if hold != nil {
		hold.Trim(len(edges))
	}

	r.mu.Lock()
	verdict := r.trk.Observe(f.Session, f.Seq)
	r.mu.Unlock()

	if verdict == VerdictApply {
		if err := r.cfg.Sink(edges); err != nil {
			r.count(func(st *metrics.UDPStats) { st.SinkErrors++ })
		} else {
			r.count(func(st *metrics.UDPStats) {
				st.FramesApplied++
				st.EdgesApplied += uint64(len(edges))
			})
		}
	}

	if f.Flags&FlagAckRequest != 0 {
		r.mu.Lock()
		ack := r.trk.AckFor(f.Session, f.Seq)
		r.mu.Unlock()
		r.ackBuf = AppendAckFrame(r.ackBuf[:0], ack)
		if _, err := r.pc.WriteTo(r.ackBuf, from); err == nil {
			r.count(func(st *metrics.UDPStats) { st.AcksSent++ })
		}
	}
}

// count applies one counter mutation under the stats lock.
func (r *Receiver) count(fn func(*metrics.UDPStats)) {
	r.mu.Lock()
	fn(&r.st)
	r.mu.Unlock()
}
