// Command vosd is the VOS similarity daemon: a durable sharded engine
// (vos.OpenEngine) behind the versioned /v1/ HTTP API (package server).
// It is the deployment shape the module builds toward — ingest a fully
// dynamic subscription stream over the network, answer similarity and
// top-K queries during ingestion, survive restarts via WAL + checkpoints.
//
// Typical invocations:
//
//	vosd -listen :8080 -dir /var/lib/vosd                 # durable
//	vosd -listen :8080                                    # memory-only
//	vosd -dir /var/lib/vosd -sync off -checkpoint-interval 30s
//	vosd -listen :8080 -window 1h -buckets 60             # sliding window
//	vosd -listen :8080 -ann                               # approximate top-K
//	vosd -listen :8080 -udp-listen :9090                  # + datagram ingest
//
// With -window the daemon serves sliding-window similarity: queries cover
// only the last -window of stream time, advanced by the wall clock and by
// timestamped ingest (the ts fields / X-Vos-Batch-Ts header of POST
// /v1/edges), with older edges retired in O(sketch) per bucket rotation.
// Checkpoints then persist per-bucket state, so -window and -buckets must
// match the directory's previous life.
//
// With -ann the engine maintains a banded-LSH index over recovered
// sketches and POST /v1/topk accepts mode "ann" — candidates-free top-K
// probing only colliding index buckets instead of scanning a supplied
// candidate list. -ann-bands/-ann-rows shape the S-curve (see the README's
// "Approximate top-K" section); without -ann, mode "ann" answers 501.
//
// With -udp-listen the daemon additionally accepts VOSSTRM1 datagram
// ingest (package client's UDPClient, internal/netproto): a fire-and-forget
// UDP plane sharing the HTTP handlers' admission budget, with per-session
// sequence tracking so lost, reordered, or replayed batches are detected
// and counted — surfaced on /v1/stats and in protocol acks — instead of
// silently corrupting the XOR sketch. Its address is printed on stdout
// once bound ("vosd udp ingest on ...").
//
// This file is flags → build the engine → run the shell. Everything a
// serving process does around its service — the listen, admission, timeout
// and -verbose flags, the UDP plane, the drain order — is
// cmd/internal/daemon, shared with vosgw. On SIGINT/SIGTERM the daemon
// drains gracefully: readiness flips to 503, in-flight requests finish
// (bounded by -drain-timeout), the listener closes, and the engine shuts
// down — writing a final checkpoint when durable, so the next start replays
// no WAL. The listen address is printed on stdout once serving ("vosd
// listening on http://..."), which scripts and the smoke test use with
// -listen 127.0.0.1:0.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/cmd/internal/daemon"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the exit code, so tests can drive the daemon.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vosd", flag.ExitOnError)
	shell := daemon.AddFlags(fs, "127.0.0.1:8080")
	sketch := daemon.SketchFlags(fs)
	var (
		dir = fs.String("dir", "", "durability directory (WAL + checkpoints); empty runs memory-only")

		shards     = fs.Int("shards", 0, "ingest shards (0 = GOMAXPROCS)")
		cacheUsers = fs.Int("position-cache-users", 0, "position-table cache entries (0 = default 512, negative disables)")

		window  = fs.Duration("window", 0, "sliding-window span: queries cover only the last this-much stream time (0 = retain everything)")
		buckets = fs.Int("buckets", 60, "sliding-window bucket count; rotation granularity is window/buckets (requires -window)")

		ann             = fs.Bool("ann", false, `maintain the approximate top-K index (enables POST /v1/topk mode "ann")`)
		annBands        = fs.Int("ann-bands", 0, "LSH bands b of the approximate top-K index (0 = default 64; requires -ann)")
		annRows         = fs.Int("ann-rows", 0, "LSH rows r per band (0 = default 16; requires -ann)")
		annRebandBudget = fs.Int("ann-reband-budget", 0, "stale users re-banded per ANN probe (0 = default 16384, negative unbounded; requires -ann)")

		syncMode   = fs.String("sync", "batch", `WAL fsync policy: "batch", "interval", or "off" (requires -dir)`)
		syncEveryN = fs.Int("sync-every-n", 0, `edges between fsyncs under -sync interval (0 = default 4096; requires -dir)`)
		segBytes   = fs.Int64("segment-bytes", 0, "WAL segment rotation threshold (0 = default 64 MiB; requires -dir)")
		ckptEvery  = fs.Duration("checkpoint-interval", 0, "automatic checkpoint period (0 disables; requires -dir)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{} // the flags given on the command line, whatever their value
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	skCfg, err := sketch()
	if err != nil {
		return fmt.Errorf("vosd: %w", err)
	}
	cfg := vos.EngineConfig{
		Sketch:             skCfg,
		Shards:             *shards,
		PositionCacheUsers: *cacheUsers,
	}
	if *window > 0 {
		if *buckets < 1 {
			return fmt.Errorf("vosd: -buckets must be at least 1 (got %d)", *buckets)
		}
		if *window%time.Duration(*buckets) != 0 {
			return fmt.Errorf("vosd: -window (%v) must be a multiple of -buckets (%d)", *window, *buckets)
		}
		cfg.Window = &vos.WindowConfig{
			Buckets:        *buckets,
			BucketDuration: *window / time.Duration(*buckets),
		}
	} else if *window < 0 {
		return fmt.Errorf("vosd: -window must not be negative (got %v)", *window)
	} else if set["buckets"] {
		return fmt.Errorf("vosd: -buckets requires -window")
	}
	if *ann {
		cfg.ANN = &vos.ANNConfig{Bands: *annBands, Rows: *annRows, RebandBudget: *annRebandBudget}
	} else if *annBands != 0 || *annRows != 0 || *annRebandBudget != 0 {
		return fmt.Errorf("vosd: -ann-bands/-ann-rows/-ann-reband-budget require -ann")
	}
	var eng *vos.Engine
	if *dir != "" {
		d := vos.DurabilityConfig{SyncEveryN: *syncEveryN, SegmentBytes: *segBytes}
		switch *syncMode {
		case "batch":
			d.Sync = vos.SyncEveryBatch
		case "interval":
			d.Sync = vos.SyncEveryN
		case "off":
			d.Sync = vos.SyncOff
		default:
			return fmt.Errorf("vosd: -sync must be batch, interval, or off (got %q)", *syncMode)
		}
		cfg.Durability = &d
		eng, err = vos.OpenEngine(*dir, cfg)
	} else if set["sync"] || *syncEveryN != 0 || *segBytes != 0 || *ckptEvery != 0 {
		return fmt.Errorf("vosd: -sync/-sync-every-n/-segment-bytes/-checkpoint-interval require -dir")
	} else {
		eng, err = vos.NewEngine(cfg)
	}
	if err != nil {
		return err
	}

	// Periodic checkpoints bound restart replay time; each one truncates
	// the covered WAL prefix.
	stopCkpt := func() {}
	if *ckptEvery > 0 {
		stopCkpt = checkpointEvery(eng, *ckptEvery, shell.Verbose)
	}
	windowDesc := "off"
	if *window > 0 {
		windowDesc = fmt.Sprintf("%v/%d buckets", *window, *buckets)
	}
	return shell.Run(daemon.Daemon{
		Name:    "vosd",
		Service: vos.NewEngineService(eng),
		Detail:  fmt.Sprintf("shards=%d, durable=%v, window=%s, ann=%v", eng.Shards(), *dir != "", windowDesc, *ann),
		Close: func() error {
			stopCkpt()
			return eng.Close()
		},
	}, stdout)
}

// checkpointEvery checkpoints eng every period until the returned stop is
// called; stop returns once no checkpoint is running.
func checkpointEvery(eng *vos.Engine, period time.Duration, verbose bool) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if pos, err := eng.Checkpoint(); err != nil {
					log.Printf("vosd: periodic checkpoint: %v", err)
				} else if verbose {
					log.Printf("vosd: checkpoint at position %d", pos)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
