// Command vosinspect builds, saves, inspects and queries VOS sketches from
// recorded stream files and engine durability directories, demonstrating
// the production workflow: a stream worker builds and checkpoints the
// sketch, a query service loads it and answers similarity queries.
//
// Usage:
//
//	# build a sketch from a stream file (see cmd/streamgen)
//	vosinspect -stream youtube.stream -memory-bits 4194304 -sketch-bits 6400 -o youtube.vos
//
//	# inspect a saved sketch
//	vosinspect -sketch youtube.vos
//
//	# query a user pair against a saved sketch
//	vosinspect -sketch youtube.vos -query 17,42
//
//	# dump an engine durability directory, flat or windowed: checkpoint,
//	# WAL segments, and the recovered (checkpoint + replayed suffix) state
//	vosinspect -wal /var/lib/vos -query 17,42
//
// -memory-bits, -sketch-bits, -seed and -hash-family are vosd's flags, with
// its defaults: -stream builds with them, and -wal rebuilds with them a
// directory whose daemon stopped before its first checkpoint (the WAL
// records edges, not the sketch's identity). Pass the daemon's own values.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/cmd/internal/daemon"
	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vosinspect:", err)
		os.Exit(1)
	}
}

// run is main minus the exit code, so tests can drive the command.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vosinspect", flag.ExitOnError)
	sketch := daemon.SketchFlags(fs)
	var (
		streamPath = fs.String("stream", "", "binary stream file to build from")
		out        = fs.String("o", "", "write the built sketch to this file")
		sketchPath = fs.String("sketch", "", "saved sketch file to inspect/query")
		walDir     = fs.String("wal", "", "engine durability directory to dump and recover")
		query      = fs.String("query", "", "user pair to query, as \"u,v\"")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := sketch()
	if err != nil {
		return err
	}

	var sk *vos.Sketch
	switch {
	case *walDir != "":
		if sk, err = dumpWAL(stdout, *walDir, cfg); err != nil {
			return err
		}
	case *streamPath != "":
		f, err := os.Open(*streamPath)
		if err != nil {
			return err
		}
		edges, err := vos.ReadStreamBinary(f)
		f.Close()
		if err != nil {
			return err
		}
		if sk, err = vos.New(cfg); err != nil {
			return err
		}
		for _, e := range edges {
			sk.Process(e)
		}
		fmt.Fprintf(stdout, "built sketch from %d stream elements\n", len(edges))
		if *out != "" {
			data, err := sk.MarshalBinary()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "saved to %s (%d bytes)\n", *out, len(data))
		}
	case *sketchPath != "":
		data, err := os.ReadFile(*sketchPath)
		if err != nil {
			return err
		}
		if sk, err = vos.Unmarshal(data); err != nil {
			return err
		}
	default:
		fs.Usage()
		return errors.New("one of -stream, -sketch or -wal is required")
	}

	st := sk.Stats()
	fmt.Fprintf(stdout, "memory:      %d bits (%d bytes on wire)\n", st.MemoryBits, st.MemoryBytes)
	fmt.Fprintf(stdout, "virtual k:   %d bits\n", st.SketchBits)
	fmt.Fprintf(stdout, "array load:  β = %.4f (%d ones)\n", st.Beta, st.OnesCount)
	fmt.Fprintf(stdout, "users:       %d with nonzero cardinality\n", st.Users)

	if *query != "" {
		u, v, err := parsePair(*query)
		if err != nil {
			return err
		}
		est := sk.Query(u, v)
		fmt.Fprintf(stdout, "query (%d, %d):\n", u, v)
		fmt.Fprintf(stdout, "  cardinalities:     n_u = %d, n_v = %d\n", est.CardinalityU, est.CardinalityV)
		fmt.Fprintf(stdout, "  common items ŝ:    %.2f (clamped %.2f)\n", est.Common, est.CommonClamped)
		fmt.Fprintf(stdout, "  jaccard Ĵ:         %.4f\n", est.Jaccard)
		fmt.Fprintf(stdout, "  symmetric diff:    %.2f\n", est.SymmetricDifference)
		fmt.Fprintf(stdout, "  diagnostics:       α = %.4f, β = %.4f, saturated = %v\n",
			est.Alpha, est.Beta, est.Saturated)
	}
	return nil
}

// dumpWAL prints a durability directory's checkpoint and segment layout,
// then reconstructs the state an engine would recover: the checkpointed
// sketch (or a fresh one from cfg, the sketch identity flags, when no
// checkpoint exists) with the WAL suffix replayed into it. The checkpoint is
// decoded by core.UnmarshalState and the suffix walked by wal.ReplayDir, as
// engine.Open does. A windowed engine's checkpoint is its bucket ring; the
// suffix then lands in the ring's merged view, as it is when persisted (a
// restarted engine first retires the buckets its clock has left behind).
func dumpWAL(w io.Writer, dir string, cfg vos.Config) (*vos.Sketch, error) {
	pos, skBytes, found, err := wal.LatestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	var sk *vos.Sketch
	var ring *core.Window
	if found {
		if sk, ring, err = core.UnmarshalState(skBytes); err != nil {
			return nil, fmt.Errorf("checkpoint at %d: %w", pos, err)
		}
	} else if sk, err = vos.New(cfg); err != nil {
		return nil, err
	}
	switch {
	case ring != nil:
		sk = ring.Merged()
		fmt.Fprintf(w, "checkpoint:  position %d, %d window bytes (%d buckets of %v ending %s; m=%d k=%d)\n",
			pos, len(skBytes), ring.Buckets(), ring.BucketDuration(), ring.End().UTC().Format(time.RFC3339), sk.MemoryBits(), sk.K())
	case found:
		fmt.Fprintf(w, "checkpoint:  position %d, %d sketch bytes (m=%d k=%d)\n",
			pos, len(skBytes), sk.MemoryBits(), sk.K())
	default:
		fmt.Fprintf(w, "checkpoint:  none (recovering from WAL alone with the -memory-bits/-sketch-bits/-seed/-hash-family config)\n")
	}

	bases, err := wal.ListSegments(dir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "wal:         %d segment(s)\n", len(bases))
	// The recovered position is the checkpoint's if the WAL ends short of
	// it (possible under SyncOff: covered records lost with the page
	// cache — engine recovery SkipTo()s the log forward to match).
	tail := pos
	for _, base := range bases {
		info, err := wal.InspectSegment(wal.SegmentPath(dir, base))
		if err != nil {
			return nil, err
		}
		torn := ""
		if info.Torn {
			torn = "  TORN TAIL (discarded on recovery)"
		}
		fmt.Fprintf(w, "  segment @%-12d %6d record(s) %8d edge(s) %8d bytes%s\n",
			info.Base, info.Records, info.Edges, info.Bytes, torn)
		if end := info.Base + info.Edges; end > tail {
			tail = end
		}
	}

	// Replay the suffix past the checkpoint, exactly as engine recovery
	// does, to show the state a restarted engine would serve — read-only,
	// so inspecting a live or crashed directory changes nothing.
	replayed := uint64(0)
	err = wal.ReplayDir(dir, pos, func(_ uint64, edges []vos.Edge) error {
		for _, e := range edges {
			sk.Process(e)
		}
		replayed += uint64(len(edges))
		return nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "recovered:   checkpoint @%d + %d replayed edge(s) -> position %d\n\n", pos, replayed, tail)
	return sk, nil
}

func parsePair(s string) (vos.User, vos.User, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want \"u,v\", got %q", s)
	}
	u, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return 0, 0, err
	}
	v, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 64)
	if err != nil {
		return 0, 0, err
	}
	return vos.User(u), vos.User(v), nil
}
