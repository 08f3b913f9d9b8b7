// Command streamgen generates fully dynamic graph-stream workload files:
// a synthetic bipartite graph shaped like one of the paper's four datasets
// (YouTube, Flickr, Orkut, LiveJournal), dynamized with the Trièst-style
// mass-deletion model (§V: d = 0.5), written in the module's text or
// binary stream format.
//
// Usage:
//
//	streamgen -dataset YouTube -scale 0.01 -o youtube.stream
//	streamgen -dataset Flickr -scale 0.005 -format text -o flickr.txt
//	streamgen -dataset Orkut -stats >/dev/null  # statistics on stderr; the stream is still written
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "streamgen:", err)
		os.Exit(1)
	}
}

// run is main minus the exit code, so tests can drive the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("streamgen", flag.ExitOnError)
	var (
		dataset  = fs.String("dataset", "YouTube", "profile: YouTube, Flickr, Orkut, LiveJournal")
		scale    = fs.Float64("scale", 0.01, "profile scale factor (paper scale = 1.0)")
		seed     = fs.Int64("seed", 2, "generation seed")
		q        = fs.Float64("q", -1, "mass-deletion event probability per element (-1 = paper scaling)")
		d        = fs.Float64("d", 0.5, "per-edge deletion probability within an event")
		reinsert = fs.Bool("reinsert", false, "re-queue deleted edges for later re-subscription")
		format   = fs.String("format", "binary", "output format: binary or text")
		out      = fs.String("o", "", "output file (default stdout)")
		stats    = fs.Bool("stats", false, "print stream statistics to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Checked before -o is created: a bad -format must not truncate it.
	var write func(io.Writer, []stream.Edge) error
	switch *format {
	case "binary":
		write = stream.WriteBinary
	case "text":
		write = stream.WriteText
	default:
		return fmt.Errorf("unknown format %q (want binary or text)", *format)
	}
	profile, err := gen.ProfileByName(*dataset)
	if err != nil {
		return err
	}
	scaled := profile.Scaled(*scale)
	base := gen.Bipartite(scaled, *seed)

	cfg := gen.PaperDynamize(len(base), *seed+1)
	cfg.DeleteFrac = *d
	cfg.Reinsert = *reinsert
	if *q >= 0 {
		cfg.EventProb = *q
	}
	edges := gen.Dynamize(base, cfg)

	if *stats {
		st := stream.NewStats()
		for _, e := range edges {
			st.Observe(e)
		}
		fmt.Fprintf(stderr, "streamgen: %s scale=%g seed=%d q=%.3g d=%.2f\n",
			scaled, *scale, *seed, cfg.EventProb, cfg.DeleteFrac)
		fmt.Fprintf(stderr, "streamgen: %s\n", st)
	}

	if *out == "" {
		return write(stdout, edges)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := write(f, edges); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
