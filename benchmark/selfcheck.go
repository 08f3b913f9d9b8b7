package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// series is one metric's values over the runs of one workload.
type series struct {
	workload string
	decl     metricDecl
	values   []float64
}

func (s series) median() float64 { return median(append([]float64(nil), s.values...)) }

// spread is the run-to-run spread as a share of the median: the full range,
// which for a handful of runs is the honest figure.
func (s series) spread() float64 {
	return (slices.Max(s.values) - slices.Min(s.values)) / s.median()
}

// endToEndSeries groups a suite's untraced runs by workload and metric, in
// the order BENCHMARK.json declares them.
func endToEndSeries(s *suite) []series {
	var out []series
	for _, w := range workloads() {
		for _, m := range endToEnd {
			se := series{workload: w.name, decl: m}
			for _, r := range s.Runs {
				if v, ok := r.Metrics[m.Name]; ok && r.Workload == w.name && !r.Traced {
					se.values = append(se.values, v.Value)
				}
			}
			if len(se.values) > 0 {
				out = append(out, se)
			}
		}
	}
	return out
}

// selfCheck runs every workload repeat times on this one build and one seed
// and holds each end-to-end metric's spread against half its bound: a
// benchmark whose own runs disagree by more cannot tell a regression of the
// bound's size from noise. The fix for a failing metric is more rounds or
// more samples a round, never a bound above 0.25.
func selfCheck(seed int64, seconds float64, repeat int, out string) error {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	s, err := runSuite(names, seed, seconds, false, repeat)
	if err != nil {
		return err
	}
	if out != "" {
		if err := writeJSON(out, s); err != nil {
			return err
		}
	}
	fmt.Printf("\nself-check over %d runs per workload, seed %d\n", repeat, seed)
	fmt.Printf("%-15s %-20s %13s %13s %13s %8s %7s  %s\n", "workload", "metric", "median", "min", "max", "spread", "bound", "verdict")
	failed := 0
	for _, se := range endToEndSeries(s) {
		verdict := "ok"
		if se.spread() > se.decl.Bound/2 {
			verdict = "TOO NOISY"
			failed++
		}
		fmt.Printf("%-15s %-20s %13.6g %13.6g %13.6g %8.3f %7.2f  %s\n", se.workload, se.decl.Name,
			se.median(), slices.Min(se.values), slices.Max(se.values), se.spread(), se.decl.Bound, verdict)
	}
	if failed > 0 {
		return fmt.Errorf("self-check: %d metrics spread over more than half their bound", failed)
	}
	return nil
}

func readSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &suite{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs (write it with -workload all -repeat N -out)", path)
	}
	return s, nil
}

// compareSuites applies BENCHMARK.json's bounds to two suites of runs. A
// metric regressed when the new median is worse than the old by more than
// its bound. Where either side's own spread is wider than the bound the
// verdict is "unresolved", not "unchanged", unless every new run reads
// better than every old one.
func compareSuites(oldPath, newPath string) error {
	oldSuite, err := readSuite(oldPath)
	if err != nil {
		return err
	}
	newSuite, err := readSuite(newPath)
	if err != nil {
		return err
	}
	news := map[string]series{}
	for _, se := range endToEndSeries(newSuite) {
		news[se.workload+"/"+se.decl.Name] = se
	}
	fmt.Printf("%-15s %-20s %13s %13s %8s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, o := range endToEndSeries(oldSuite) {
		n, ok := news[o.workload+"/"+o.decl.Name]
		if !ok {
			continue
		}
		worse := (n.median() - o.median()) / o.median()
		allBetter := slices.Max(n.values) < slices.Min(o.values)
		if o.decl.Better == "higher" {
			worse = -worse
			allBetter = slices.Min(n.values) > slices.Max(o.values)
		}
		spread := max(o.spread(), n.spread())
		verdict := "unchanged"
		switch {
		case spread > o.decl.Bound && !allBetter:
			verdict = "unresolved"
		case worse > o.decl.Bound:
			verdict = "REGRESSED"
			regressed++
		case worse < -o.decl.Bound || allBetter:
			verdict = "improved"
		}
		fmt.Printf("%-15s %-20s %13.6g %13.6g %+8.3f %8.3f %7.2f  %s\n", o.workload, o.decl.Name,
			o.median(), n.median(), worse, spread, o.decl.Bound, verdict)
	}
	if regressed > 0 {
		return fmt.Errorf("compare: %d metrics regressed past their bound", regressed)
	}
	return nil
}
