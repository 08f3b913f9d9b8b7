// Package daemon is the serving shell vosd and vosgw share: the flags every
// daemon takes and the one safe order in which a process brings a
// vos.SimilarityService up behind the /v1/ API and takes it down again. A
// main builds its service from its own flags and hands it to Run. It also
// declares the sketch identity flags, which vosd and vosinspect share.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/admit"
	"github.com/vossketch/vos/internal/netproto"
	"github.com/vossketch/vos/server"
)

// Flags are the flags both daemons take, with one name, default and meaning.
type Flags struct {
	Listen           string
	UDPListen        string
	MaxBatchBytes    int64
	MaxInFlightBytes int64
	ReadTimeout      time.Duration
	DrainTimeout     time.Duration
	Verbose          bool
}

// AddFlags declares the shared flags on fs. Only -listen's default is the
// daemon's own (each has its conventional port).
func AddFlags(fs *flag.FlagSet, listen string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Listen, "listen", listen, "TCP listen address (use port 0 for an ephemeral port)")
	fs.StringVar(&f.UDPListen, "udp-listen", "", "UDP listen address for VOSSTRM1 datagram ingest (empty disables; use port 0 for an ephemeral port)")
	fs.Int64Var(&f.MaxBatchBytes, "max-batch-bytes", 0, "per-request ingest body cap (0 = default 8 MiB)")
	fs.Int64Var(&f.MaxInFlightBytes, "max-inflight-bytes", 0, "summed worst-case in-flight ingest memory (wire + decoded) before backpressure (0 = default 128 MiB)")
	fs.DurationVar(&f.ReadTimeout, "read-timeout", 30*time.Second, "max time to read a full request, headers and body (0 disables)")
	fs.DurationVar(&f.DrainTimeout, "drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
	fs.BoolVar(&f.Verbose, "verbose", false, "log one line per request")
	return f
}

// SketchFlags declares the flags that name a sketch's identity on fs: vosd
// builds its engine from them, and vosinspect rebuilds a directory that has
// no checkpoint from them, so both read one set of names and defaults. The
// returned func reads the config once fs is parsed.
func SketchFlags(fs *flag.FlagSet) func() (vos.Config, error) {
	memoryBits := fs.Uint64("memory-bits", 1<<22, "m, shared array size in bits")
	sketchBits := fs.Int("sketch-bits", 4096, "k, virtual sketch size in bits")
	seed := fs.Uint64("seed", 1, "sketch seed (identical config required to merge or recover)")
	hashFamily := fs.String("hash-family", "classic", `position hash family: "classic" or "fast" (part of the sketch identity; must match any existing checkpoint)`)
	return func() (vos.Config, error) {
		family, err := vos.ParseHashFamily(*hashFamily)
		if err != nil {
			return vos.Config{}, fmt.Errorf("-hash-family: %w", err)
		}
		return vos.Config{MemoryBits: *memoryBits, SketchBits: *sketchBits, Seed: *seed, Family: family}, nil
	}
}

// Daemon is what differs between the processes the shell serves.
type Daemon struct {
	Name    string                // "vosd", "vosgw": prefixes the banner, log lines and errors
	Service vos.SimilarityService // served over the /v1/ API and fed by the UDP plane
	Routes  func(*server.Server)  // adds the service's own routes (Server.Handle); nil for none
	Detail  string                // the banner's parenthesis: "Name listening on http://addr (Detail)"
	// Close shuts the service down. Run calls it exactly once on every
	// path, last: after the listener has closed and every request finished.
	Close func() error
}

// Run serves d until SIGINT/SIGTERM, then drains and returns. The order is
// the contract. Up: one admission controller for every ingest transport
// (the HTTP handlers and the UDP receiver draw on the same in-flight byte
// budget, so -max-inflight-bytes bounds the process, not a plane), the
// optional UDP receiver, the server, the listener, the banner on stdout —
// which scripts and the smoke tests read the bound addresses from. Down:
// the UDP plane first (its Close waits for the frame being applied, so no
// datagram batch races the teardown), then out of rotation and in-flight
// requests finished (bounded by -drain-timeout), the listener, and the
// service last, so every request admitted before the drain answers from
// live state.
func (f *Flags) Run(d Daemon, stdout io.Writer) error {
	adm := admit.NewController(f.MaxBatchBytes, f.MaxInFlightBytes)
	opts := server.Options{Admission: adm}
	if f.Verbose {
		opts.Logger = log.New(os.Stderr, d.Name+": ", log.LstdFlags)
	}

	var udpRecv *netproto.Receiver
	udpRunErr := make(chan error, 1)
	abort := func(err error) error { // the way out before the drain sequence applies
		if udpRecv != nil {
			udpRecv.Close()
		}
		d.Close()
		return err
	}
	if f.UDPListen != "" {
		pc, err := net.ListenPacket("udp", f.UDPListen)
		if err != nil {
			return abort(fmt.Errorf("%s: -udp-listen: %w", d.Name, err))
		}
		udpRecv = netproto.NewReceiver(pc, netproto.Config{
			Sink:  func(edges []vos.Edge) error { return d.Service.Ingest(context.Background(), edges) },
			Admit: adm,
		})
		go func() { udpRunErr <- udpRecv.Run() }()
		opts.UDPStats = udpRecv.Stats
	}
	srv := server.New(d.Service, opts)
	if d.Routes != nil {
		d.Routes(srv)
	}

	ln, err := net.Listen("tcp", f.Listen)
	if err != nil {
		return abort(err)
	}
	// ReadTimeout matters for more than hygiene: handleEdges charges the
	// in-flight ingest byte budget up front, so without a body deadline a
	// handful of clients trickling bytes could hold the whole budget and
	// starve ingest behind 429s. The timeout bounds how long any one
	// request can sit on its slice of the budget.
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       f.ReadTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "%s listening on http://%s (%s)\n", d.Name, ln.Addr(), d.Detail)
	if udpRecv != nil {
		fmt.Fprintf(stdout, "%s udp ingest on %s (VOSSTRM1 datagrams)\n", d.Name, udpRecv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-serveErr:
		return abort(err)
	case s := <-sig:
		fmt.Fprintf(stdout, "%s: %v — draining\n", d.Name, s)
	}

	if udpRecv != nil {
		if err := udpRecv.Close(); err != nil {
			log.Printf("%s: udp close: %v", d.Name, err)
		}
		if err := <-udpRunErr; err != nil {
			log.Printf("%s: udp receiver: %v", d.Name, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.DrainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("%s: drain: %v", d.Name, err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("%s: http shutdown: %v", d.Name, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("%s: close: %w", d.Name, err)
	}
	fmt.Fprintf(stdout, "%s: stopped\n", d.Name)
	return nil
}
