// Command vosgw is the VOS cluster gateway: a routing tier that serves
// the same versioned /v1/ HTTP API as a single vosd, backed by a ring of
// per-shard vosd nodes (internal/cluster). Ingest fans out to each user's
// owning backend by the ring's shard hash; reads answer from the XOR-merge
// of every backend's sketch, held resident and kept current from the edges
// each backend applied since the last read — so a K-node cluster answers
// bit-identical to a single engine over the same stream.
//
// Typical invocations:
//
//	vosgw -listen :8070 -ring /etc/vosgw/ring.json
//	vosgw -listen :8070 -ring ring.json -manifest manifest.json
//	vosgw -listen :8070 -ring ring.json -udp-listen :9070
//
// The ring document is JSON:
//
//	{
//	  "version": 1,
//	  "route_seed": 1,
//	  "shards": ["http://10.0.0.1:8080", "http://10.0.0.2:8080"]
//	}
//
// shards[i] is the backend owning cluster shard i; the shard count and
// route_seed are fixed for the cluster's life (they define the user
// partition). The gateway rewrites the file atomically on every handoff
// (POST /v1/cluster/handoff), bumping version.
//
// Beyond the standard API, the gateway serves GET /v1/cluster/ring,
// POST /v1/cluster/handoff (move a shard to a fresh node:
// checkpoint-ship + merge, exact by XOR-mergeability), and
// POST /v1/cluster/checkpoint (quiesce ingest, checkpoint every backend,
// record a cluster manifest). With -udp-listen it also accepts VOSSTRM1
// datagram ingest, sharing the HTTP handlers' admission budget.
//
// The gateway needs no sketch flags: it learns the sketch configuration
// from the backends' own exported state, so the backends are the single
// source of truth for cluster identity.
//
// On SIGINT/SIGTERM it drains like vosd: readiness flips to 503,
// in-flight requests finish (bounded by -drain-timeout), then the
// listener and the backend clients close. The listen address is printed
// on stdout once serving ("vosgw listening on http://..."), which scripts
// and the smoke tests use with -listen 127.0.0.1:0.
package main

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
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/internal/admit"
	"github.com/vossketch/vos/internal/cluster"
	"github.com/vossketch/vos/internal/netproto"
	"github.com/vossketch/vos/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the exit code, so tests can drive the daemon.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vosgw", flag.ExitOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:8070", "TCP listen address (use port 0 for an ephemeral port)")
		udpListen = fs.String("udp-listen", "", "UDP listen address for VOSSTRM1 datagram ingest (empty disables; use port 0 for an ephemeral port)")
		ringPath  = fs.String("ring", "", "path to the ring document (shard→node table, JSON; required)")
		manifest  = fs.String("manifest", "", "path where cluster checkpoints record their manifest (empty disables)")

		batchSize    = fs.Int("backend-batch-size", 0, "edges per backend ingest batch (0 = default 256)")
		maxRetries   = fs.Int("backend-max-retries", 0, "read retries per backend after transport errors/5xx (0 = default 2, negative disables)")
		retryBackoff = fs.Duration("backend-retry-backoff", 0, "first backend retry delay, doubled per retry (0 = default 50ms)")
		backendTO    = fs.Duration("backend-timeout", 30*time.Second, "per-backend HTTP request timeout")

		maxBatchBytes    = fs.Int64("max-batch-bytes", 0, "per-request ingest body cap (0 = default 8 MiB)")
		maxInFlightBytes = fs.Int64("max-inflight-bytes", 0, "summed worst-case in-flight ingest memory before backpressure (0 = default 128 MiB)")
		readTimeout      = fs.Duration("read-timeout", 30*time.Second, "max time to read a full request, headers and body (0 disables)")
		drainTimeout     = fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
		verbose          = fs.Bool("verbose", false, "log one line per request")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ringPath == "" {
		return fmt.Errorf("vosgw: -ring is required (the shard→node table)")
	}

	gw, err := cluster.Open(*ringPath, cluster.Options{
		ManifestPath: *manifest,
		Client: client.Options{
			HTTPClient:   &http.Client{Timeout: *backendTO},
			BatchSize:    *batchSize,
			MaxRetries:   *maxRetries,
			RetryBackoff: *retryBackoff,
		},
	})
	if err != nil {
		return fmt.Errorf("vosgw: %w", err)
	}

	// One admission controller for every ingest transport, exactly like
	// vosd: HTTP handlers and the UDP receiver share one in-flight byte
	// budget for the process.
	adm := admit.NewController(*maxBatchBytes, *maxInFlightBytes)
	opts := server.Options{Admission: adm}
	if *verbose {
		opts.Logger = log.New(os.Stderr, "vosgw: ", log.LstdFlags)
	}

	var udpRecv *netproto.Receiver
	udpRunErr := make(chan error, 1)
	if *udpListen != "" {
		pc, err := net.ListenPacket("udp", *udpListen)
		if err != nil {
			gw.Close()
			return fmt.Errorf("vosgw: -udp-listen: %w", err)
		}
		udpRecv = netproto.NewReceiver(pc, netproto.Config{
			Sink:  func(edges []vos.Edge) error { return gw.Ingest(context.Background(), edges) },
			Admit: adm,
		})
		go func() { udpRunErr <- udpRecv.Run() }()
		opts.UDPStats = udpRecv.Stats
	}
	srv := server.New(gw, opts)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		if udpRecv != nil {
			udpRecv.Close()
		}
		gw.Close()
		return err
	}
	httpSrv := &http.Server{
		// Gateway-only routes wrap the standard API handler; exact paths
		// win over its catch-all.
		Handler:           gw.Handler(srv),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	ring := gw.Ring()
	fmt.Fprintf(stdout, "vosgw listening on http://%s (shards=%d, ring=v%d)\n",
		ln.Addr(), ring.NumShards(), ring.Version)
	if udpRecv != nil {
		fmt.Fprintf(stdout, "vosgw udp ingest on %s (VOSSTRM1 datagrams)\n", udpRecv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if udpRecv != nil {
			udpRecv.Close()
		}
		gw.Close()
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "vosgw: %v — draining\n", s)
	}

	// Graceful shutdown mirrors vosd: the UDP plane first (Close waits for
	// the frame being applied), then drain, then the listener, then the
	// backend clients.
	if udpRecv != nil {
		if err := udpRecv.Close(); err != nil {
			log.Printf("vosgw: udp close: %v", err)
		}
		if err := <-udpRunErr; err != nil {
			log.Printf("vosgw: udp receiver: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("vosgw: drain: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("vosgw: http shutdown: %v", err)
	}
	if err := gw.Close(); err != nil {
		return fmt.Errorf("vosgw: close: %w", err)
	}
	fmt.Fprintln(stdout, "vosgw: stopped")
	return nil
}
