// Command vosbench regenerates the paper's evaluation figures and the
// repository's ablation tables from scratch: it generates the workloads,
// runs every method under the §V memory-equalised protocol, and prints the
// rows the corresponding figure plots.
//
// Usage:
//
//	vosbench -experiment fig3a
//	vosbench -experiment all -scale 0.02 -csv
//	vosbench -experiment compare -dataset Flickr -json
//
// Experiments: fig2a, fig2b (update cost against k and per dataset),
// fig3a, fig3b, fig3c, fig3d (AAPE and ARMSE over time and at the end of
// the stream, against MinHash, OPH and RP), abl-lambda, abl-load,
// abl-dense, abl-delbias (the ablations), compare (per-method error
// quantiles), and all, which runs every one of them.
//
// vosbench reproduces the paper; it measures no system performance.
// Throughput, latency and per-layer costs of the engine, the servers and
// the cluster tier come from the repository's benchmark: go run ./benchmark.
//
// -json renders every table as a machine-readable JSON document.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/vossketch/vos/internal/experiments"
)

func main() {
	// The flags' defaults are the harness's own: what a flag does not set,
	// and a zero a flag does set, is experiments.Defaults().
	opts := experiments.Defaults()
	var (
		experiment = flag.String("experiment", "all", "experiment id ("+strings.Join(experimentIDs(), " ")+" all)")
		runtimeKs  = flag.String("runtime-ks", formatIntList(opts.RuntimeKs), "comma-separated k sweep for fig2")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON instead of aligned text")
		outdir     = flag.String("outdir", "", "also write each table as <outdir>/<id>.csv")
	)
	flag.Float64Var(&opts.Scale, "scale", opts.Scale, "dataset profile scale factor (paper scale = 1.0)")
	flag.Int64Var(&opts.Seed, "seed", opts.Seed, "workload seed")
	flag.IntVar(&opts.K32, "k", opts.K32, "registers per user for the baselines (paper: 100)")
	flag.IntVar(&opts.Lambda, "lambda", opts.Lambda, "VOS virtual-sketch multiplier (paper: 2)")
	flag.IntVar(&opts.TopUsers, "topusers", opts.TopUsers, "highest-cardinality users seeding tracked pairs")
	flag.IntVar(&opts.MaxPairs, "maxpairs", opts.MaxPairs, "cap on tracked pairs")
	flag.IntVar(&opts.Checkpoints, "checkpoints", opts.Checkpoints, "measurement points for over-time panels")
	flag.StringVar(&opts.Dataset, "dataset", opts.Dataset, "profile for single-dataset experiments (YouTube, Flickr, Orkut, LiveJournal)")
	flag.Parse()

	var err error
	if opts.RuntimeKs, err = parseIntList(*runtimeKs, "-runtime-ks"); err != nil {
		fatal(err)
	}

	tables, err := run(*experiment, opts)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		switch {
		case *jsonOut:
			err = t.RenderJSON(os.Stdout)
		case *csv:
			err = t.RenderCSV(os.Stdout)
		default:
			err = t.Render(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		if *outdir != "" {
			if err := writeCSV(*outdir, t); err != nil {
				fatal(err)
			}
		}
	}
}

// writeCSV persists one table under dir as <id>.csv.
func writeCSV(dir string, t *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	if err := t.RenderCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runner computes the tables of one protocol run. The Figure 3 panels come
// in pairs from one computation, so a runner may return more tables than
// the id it is registered under.
type runner func(experiments.Options) ([]*experiments.Table, error)

// registry is every experiment id, in the order "all" prints them. A
// single id and "all" both dispatch through it, so neither can list an
// experiment the other lacks.
var registry = []struct {
	id  string
	run runner
}{
	{"fig2a", one(experiments.Fig2a)},
	{"fig2b", one(experiments.Fig2b)},
	{"fig3a", two(experiments.Fig3TimeSeries)},
	{"fig3b", two(experiments.Fig3Final)},
	{"fig3c", two(experiments.Fig3TimeSeries)},
	{"fig3d", two(experiments.Fig3Final)},
	{"abl-lambda", one(experiments.AblLambda)},
	{"abl-load", one(experiments.AblLoad)},
	{"abl-dense", one(experiments.AblDense)},
	{"abl-delbias", one(experiments.AblDelBias)},
	{"compare", one(experiments.Compare)},
}

func experimentIDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// run returns the table registered under id, or every table in registry
// order for "all". A runner that yields two panels runs once: its second
// table is kept until the loop reaches that panel's id.
func run(id string, opts experiments.Options) ([]*experiments.Table, error) {
	computed := map[string]*experiments.Table{}
	var out []*experiments.Table
	for _, e := range registry {
		if id != "all" && id != e.id {
			continue
		}
		if computed[e.id] == nil {
			tables, err := e.run(opts)
			if err != nil {
				return nil, err
			}
			for _, t := range tables {
				computed[t.ID] = t
			}
		}
		out = append(out, computed[e.id])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("vosbench: unknown experiment %q", id)
	}
	return out, nil
}

func one(fn func(experiments.Options) (*experiments.Table, error)) runner {
	return func(opts experiments.Options) ([]*experiments.Table, error) {
		t, err := fn(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{t}, nil
	}
}

func two(fn func(experiments.Options) (a, b *experiments.Table, err error)) runner {
	return func(opts experiments.Options) ([]*experiments.Table, error) {
		a, b, err := fn(opts)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{a, b}, nil
	}
}

// formatIntList writes ks the way parseIntList reads them.
func formatIntList(ks []int) string {
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = strconv.Itoa(k)
	}
	return strings.Join(parts, ",")
}

// parseIntList parses a comma-separated list of positive integers, naming
// the offending flag in errors.
func parseIntList(s, flagName string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		k, err := strconv.Atoi(p)
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("vosbench: bad value %q in %s", p, flagName)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("vosbench: empty %s", flagName)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vosbench:", err)
	os.Exit(1)
}
