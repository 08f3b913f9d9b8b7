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
// record a cluster manifest) — registered on the same server as the
// standard routes, so they drain, count in /v1/metrics and log like them.
// A backend's own refusal (429 backpressure, 413 too_large) reaches the
// gateway's caller as the backend sent it. With -udp-listen it also accepts
// VOSSTRM1 datagram ingest, sharing the HTTP handlers' admission budget.
//
// The gateway needs no sketch flags: it learns the sketch configuration
// from the backends' own exported state, so the backends are the single
// source of truth for cluster identity.
//
// This file is flags → open the gateway → run the shell: the process
// around the service is vosd's (cmd/internal/daemon), the same flags and
// the same drain. On SIGINT/SIGTERM readiness flips to 503, in-flight
// requests finish — a running handoff included — (bounded by
// -drain-timeout), then the listener and the backend clients close. The
// listen address is printed on stdout once serving ("vosgw listening on
// http://..."), which scripts and the smoke tests use with
// -listen 127.0.0.1:0.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/cmd/internal/daemon"
	"github.com/vossketch/vos/internal/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the exit code, so tests can drive the daemon.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vosgw", flag.ExitOnError)
	shell := daemon.AddFlags(fs, "127.0.0.1:8070")
	var (
		ringPath  = fs.String("ring", "", "path to the ring document (shard→node table, JSON; required)")
		manifest  = fs.String("manifest", "", "path where cluster checkpoints record their manifest (empty disables)")
		backendTO = fs.Duration("backend-timeout", 30*time.Second, "per-backend HTTP request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ringPath == "" {
		return fmt.Errorf("vosgw: -ring is required (the shard→node table)")
	}

	gw, err := cluster.Open(*ringPath, cluster.Options{
		ManifestPath: *manifest,
		Client:       client.Options{HTTPClient: &http.Client{Timeout: *backendTO}},
	})
	if err != nil {
		return fmt.Errorf("vosgw: %w", err)
	}

	ring := gw.Ring()
	return shell.Run(daemon.Daemon{
		Name:    "vosgw",
		Service: gw,
		Routes:  gw.Register,
		Detail:  fmt.Sprintf("shards=%d, ring=v%d", ring.NumShards(), ring.Version),
		Close:   gw.Close,
	}, stdout)
}
