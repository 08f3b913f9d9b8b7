// Command benchmark is the repository's one benchmark: four workloads,
// each run in a fresh process through setup, A ingest, B quiet reads,
// C fresh reads and D verify, printing the metrics BENCHMARK.json declares.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// workDir holds everything a run writes: WAL directories while it runs,
// and the trace and result files it leaves. It is relative to the working
// directory, which the driver makes the checkout root.
const workDir = ".bench_work"

// options are the command's flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	out       string
	repeat    int
	selfcheck bool
	compare   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: one of the names in BENCHMARK.json, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "scales the number of measured rounds: the default makes the rounds BENCHMARK.json was sized for")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.out, "out", "", "also write the result document (or, with several runs, the suite) to this file")
	flag.IntVar(&o.repeat, "repeat", 1, "runs per workload, each in a fresh process on the same seed")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload -repeat times (at least 3) on this code and this seed, and fail if a spread exceeds half its bound")
	flag.BoolVar(&o.compare, "compare", false, "compare two suite files: -compare old.json new.json")
	flag.Parse()
	if err := dispatch(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(o options, args []string) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	trace := o.trace != 0
	switch {
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two suite files")
		}
		return compareSuites(args[0], args[1])
	case o.selfcheck:
		return selfCheck(o.seed, o.seconds, max(o.repeat, 3), o.out)
	case o.workload == "all" || o.repeat > 1:
		names := []string{o.workload}
		if o.workload == "all" {
			names = names[:0]
			for _, w := range workloads() {
				names = append(names, w.name)
			}
		}
		s, err := runSuite(names, o.seed, o.seconds, trace, o.repeat)
		if err != nil {
			return err
		}
		if o.out != "" {
			return writeJSON(o.out, s)
		}
		return nil
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := run(w, o.seed, o.seconds, trace, workDir)
	if err != nil {
		// Nothing is printed for a run that failed an operation or a gate.
		return fmt.Errorf("%s seed %d: %d of %d operations failed: %w", w.name, o.seed, res.Failed, res.Attempted, err)
	}
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			return err
		}
	}
	printResult(res)
	return printContractLine(res)
}

// printResult prints every metric by name with its unit and sample count.
func printResult(res *result) {
	mode := "end-to-end"
	if res.Traced {
		mode = "per-layer, traced"
	}
	fmt.Printf("%s seed %d: %s metrics, -seconds %g\n", res.Workload, res.Seed, mode, res.Seconds)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("  %-34s %14.6g %-8s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" n=%d", m.Samples)
		}
		fmt.Println(line)
	}
	phases := make([]string, 0, len(res.PhaseSeconds))
	for p := range res.PhaseSeconds {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	fmt.Print("  phase seconds:")
	for _, p := range phases {
		fmt.Printf(" %s=%.2f", p, res.PhaseSeconds[p])
	}
	fmt.Println()
	// The tails are reported and not gated (see setLatencies); the
	// per-round values are in the result document only.
	brief := map[string]any{}
	for k, v := range res.Info {
		switch k {
		case "tails":
			tails, _ := json.Marshal(v)
			fmt.Printf("  tails, no bound: %s\n", tails)
		case "round_values", "round_values_unscaled":
		default:
			brief[k] = v
		}
	}
	info, _ := json.Marshal(brief)
	fmt.Printf("  info: %s\n", info)
	for _, phase := range []string{"A_ingest", "B_quiet", "C_fresh"} {
		rows := res.Layers[phase]
		if len(rows) == 0 {
			continue
		}
		fmt.Printf("  layers in phase %s (self time per span name):\n", phase)
		for _, row := range rows {
			fmt.Printf("    %-22s n=%-7d self=%10.3f ms total=%10.3f ms\n", row.Name, row.Count, float64(row.SelfNS)/1e6, float64(row.TotalNS)/1e6)
		}
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
}

// contractLine is the last line of a run's standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContractLine(res *result) error {
	line := contractLine{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = contractValue{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// suite is several runs of one build, the unit -selfcheck and -compare
// work on.
type suite struct {
	Runs []*result `json:"runs"`
}

// runSuite runs each named workload repeat times on one seed, every run in
// a fresh process of this same binary so that no two runs share a heap, a
// cache or a listener. The repeats share the seed so that what differs
// between them is the machine and not the inputs, and a workload's repeats
// follow one another directly: the host this was sized on changes speed by
// a third every few minutes, and runs that are to be compared with each
// other should see as little of that as they can.
func runSuite(names []string, seed int64, seconds float64, trace bool, repeat int) (*suite, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	s := &suite{}
	for _, name := range names {
		for i := 0; i < repeat; i++ {
			doc := filepath.Join(workDir, fmt.Sprintf("result-%s-%d.json", name, os.Getpid()))
			t := "0"
			if trace {
				t = "1"
			}
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-out", doc)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("run %d of %s: %w", i+1, name, err)
			}
			data, err := os.ReadFile(doc)
			if err != nil {
				return nil, err
			}
			os.Remove(doc)
			res := &result{}
			if err := json.Unmarshal(data, res); err != nil {
				return nil, err
			}
			s.Runs = append(s.Runs, res)
		}
	}
	return s, nil
}
