package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/engine"
	"github.com/vossketch/vos/internal/exact"
	"github.com/vossketch/vos/internal/stream"
)

// tinySpecs returns the four workloads at a scale a test can afford: the
// same stacks, generators, phases and gates over a few thousand edges.
func tinySpecs() []workloadSpec {
	var out []workloadSpec
	for _, w := range workloads() {
		w.stream.users = 400
		w.stream.items = 1 << 12
		w.stream.baseEdges = 6000
		if w.stream.epochs == 0 {
			w.stream.blockEdges = 3000
		}
		w.stream.clusters, w.stream.members, w.stream.clusterSize, w.stream.extras = 4, 12, 300, 10
		w.sketch = core.Config{MemoryBits: 1 << 20, SketchBits: 1024, Seed: sketchSeed, Family: w.sketch.Family}
		w.ingestBatch = 512
		if w.wireBatch > 0 {
			w.wireBatch = 128
		}
		w.hotUsers = 64
		if w.candidates > 0 {
			w.candidates = 16
		}
		if w.ann != nil {
			w.ann = &engine.ANNConfig{Bands: 32, Rows: 6}
		}
		w.rounds, w.unitsPerRound, w.quietSims, w.freshReads = minRounds, 2, 20, 4
		w.rmseCeiling = 0.25
		w.timingGates = false
		out = append(out, w)
	}
	return out
}

// streamHash folds a run's whole input — preload, rotations, cycle — into
// one number.
func streamHash(t *testing.T, spec streamSpec, seed int64) uint64 {
	t.Helper()
	h := fnv.New64a()
	write := func(edges []stream.Edge) {
		for _, e := range edges {
			var b [17]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(uint64(e.User) >> (8 * i))
				b[8+i] = byte(uint64(e.Item) >> (8 * i))
			}
			b[16] = byte(e.Op)
			h.Write(b[:])
		}
	}
	d, err := generate(spec, seed, func(edges []stream.Edge, rotateBefore bool) error {
		if rotateBefore {
			h.Write([]byte{0xff})
		}
		write(edges)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	write(d.cycle)
	return h.Sum64()
}

func TestGeneratorRepeatsPerSeed(t *testing.T) {
	for _, w := range tinySpecs() {
		a, b, c := streamHash(t, w.stream, 7), streamHash(t, w.stream, 7), streamHash(t, w.stream, 8)
		if a != b {
			t.Errorf("%s: seed 7 generated two different streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", w.name)
		}
	}
}

// exactAfter feeds an exact store the preload and then `passes` whole
// cycles with the window's retire semantics; Apply fails on any infeasible
// element, so this is also the feasibility check of everything the
// benchmark ever sends.
func exactAfter(t *testing.T, spec streamSpec, seed int64, passes int) (*exact.Store, *workloadData) {
	t.Helper()
	st := exact.NewStore()
	apply := func(edges []stream.Edge) {
		for _, e := range edges {
			if err := st.Apply(e); err != nil {
				t.Fatalf("infeasible element %v: %v", e, err)
			}
		}
	}
	d, err := generate(spec, seed, func(edges []stream.Edge, _ bool) error {
		apply(edges)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < passes; p++ {
		d.apply(0, len(d.cycle), apply)
	}
	return st, d
}

func TestStreamsFeasibleAndCyclesNeutral(t *testing.T) {
	for _, w := range tinySpecs() {
		if w.stream.epochs == 0 {
			// An unwindowed preload followed by the cycle is one plain stream.
			var all []stream.Edge
			d, err := generate(w.stream, 5, func(edges []stream.Edge, _ bool) error {
				all = append(all, edges...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := stream.Validate(append(all, d.cycle...)); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
		before, d := exactAfter(t, w.stream, 5, 0)
		after, _ := exactAfter(t, w.stream, 5, 2)
		for _, u := range append(before.Users(), after.Users()...) {
			if before.Cardinality(u) != after.Cardinality(u) {
				t.Fatalf("%s: user %d holds %d items before and %d after two cycles", w.name, u, before.Cardinality(u), after.Cardinality(u))
			}
			for _, it := range before.Items(u) {
				if !after.Has(u, it) {
					t.Fatalf("%s: user %d lost item %d over two cycles", w.name, u, it)
				}
			}
		}
		// Half-way through a pass the state must differ, or the parity gate
		// of phase D would compare the preload state with itself.
		half := exact.NewStore()
		if _, err := generate(w.stream, 5, func(edges []stream.Edge, _ bool) error {
			for _, e := range edges {
				half.MustApply(e)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		end := d.nextParity(1)
		d.apply(0, end/2, func(edges []stream.Edge) {
			for _, e := range edges {
				half.MustApply(e)
			}
		})
		differs := false
		for _, u := range half.Users() {
			differs = differs || half.Cardinality(u) != before.Cardinality(u)
		}
		if !differs {
			t.Errorf("%s: the state half-way through a pass equals the preload state", w.name)
		}
	}
}

func TestPlantedJaccardIsExact(t *testing.T) {
	for _, w := range tinySpecs() {
		st, d := exactAfter(t, w.stream, 11, 1)
		if len(d.planted) == 0 {
			t.Fatalf("%s: no planted pairs", w.name)
		}
		for _, p := range d.planted {
			if got := st.Jaccard(p.u, p.v); got != p.jaccard {
				t.Fatalf("%s: pair %d,%d has Jaccard %v, planted %v", w.name, p.u, p.v, got, p.jaccard)
			}
		}
	}
}

func TestSmokeEveryWorkloadThroughEveryGate(t *testing.T) {
	names := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	// A per-layer metric reads 0 on a workload whose stack lacks its layer;
	// every one of them must be measured by a probe on some workload.
	measured := map[string]bool{}
	defer func() {
		for _, m := range perLayer {
			if !measured[m.Name] {
				t.Errorf("per-layer metric %s was measured on no workload", m.Name)
			}
		}
	}()
	for _, w := range tinySpecs() {
		for _, traced := range []bool{false, true} {
			res, err := run(w, 3, 0.05, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: attempted %d, failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, declared %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, declared unit %q", w.name, traced, m.Name, v, m.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, m.Name, v.Value)
				}
				if traced && (v.Samples > 0 || v.Value != 0) {
					measured[m.Name] = true
				}
				if !names.MatchString(m.Name) {
					t.Errorf("metric name %q", m.Name)
				}
			}
		}
	}
}

// A run that fails a gate must return an error, which is what keeps main
// from printing its metrics.
func TestFailedGateWithholdsTheResult(t *testing.T) {
	w := tinySpecs()[0]
	w.rmseCeiling = 1e-9
	res, err := run(w, 3, 0.05, false, t.TempDir())
	if err == nil || res.Failed == 0 {
		t.Fatalf("err %v, failed %d: an est_rmse above its ceiling passed", err, res.Failed)
	}
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
		Why    string  `json:"why"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []decl   `json:"workloads"`
		EndToEnd   []decl   `json:"end_to_end"`
		PerLayer   []decl   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths %v", doc.Paths)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d defined", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, defined %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []decl, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestLayerTableMergesParallelSiblings(t *testing.T) {
	// A gateway call of 100 with two overlapping round trips (10-60 and
	// 20-80), each holding a handler of 20.
	spans := []span{
		{ID: 1, Req: 1, Name: "gateway.ingest", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "http.roundtrip", Start: 10, End: 60},
		{ID: 3, Parent: 1, Req: 1, Name: "http.roundtrip", Start: 20, End: 80},
		{ID: 4, Parent: 2, Req: 1, Name: "server.handle", Start: 30, End: 50},
		{ID: 5, Parent: 3, Req: 1, Name: "server.handle", Start: 40, End: 60},
		{ID: 6, Req: 6, Name: "receiver.sink", Start: 0, End: 500, Async: true},
	}
	rows := layerTable(spans)
	self := map[string]int64{}
	for _, r := range rows {
		self[r.Name] = r.SelfNS
	}
	if self["gateway.ingest"] != 30 || self["http.roundtrip"] != 40 || self["server.handle"] != 30 {
		t.Errorf("self times %v", self)
	}
	if got := self["gateway.ingest"] + self["http.roundtrip"] + self["server.handle"]; got != 100 {
		t.Errorf("the chain's self times sum to %d, the root took 100", got)
	}
}

func TestRoundsAreScaledByTheHostFactor(t *testing.T) {
	// Three rounds on a host that ran at its nominal speed, half as slow
	// again, and twice as slow: the program took the same time in each.
	var rounds []roundSamples
	for _, f := range []float64{1, 1.5, 2} {
		rounds = append(rounds, roundSamples{
			edges: 1000, ingestWall: time.Duration(f * float64(time.Millisecond)),
			simQuiet: []float64{0.1 * f, 0.1 * f, 0.1 * f},
			host:     [4]float64{f, f, f, f},
		})
	}
	r := &runner{res: &result{Metrics: map[string]metricValue{}, Info: map[string]any{}}}
	if got := r.overRounds("ingest_edges_per_s", true, rounds, sliceA, roundSamples.ingestRate); math.Abs(got-1e6) > 1 {
		t.Errorf("ingest rate %v, want 1e6 edges/s in every round", got)
	}
	r.setLatencies("sim_quiet", rounds, sliceB, func(rs roundSamples) []float64 { return rs.simQuiet })
	if got := r.res.Metrics["sim_quiet_p50_ms"].Value; math.Abs(got-0.1) > 1e-9 {
		t.Errorf("sim_quiet_p50_ms %v, want 0.1", got)
	}
	if raw := r.res.Info["round_values_unscaled"].(map[string]any)["sim_quiet_p50_ms"].([]float64); raw[2] != 0.2 {
		t.Errorf("the unscaled value of the slowest round is %v, want 0.2", raw[2])
	}
	if _, gated := r.res.Metrics["sim_quiet_p95_ms"]; gated {
		t.Error("a tail percentile was reported as an end-to-end metric")
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(vals ...float64) *suite {
		s := &suite{}
		for _, v := range vals {
			s.Runs = append(s.Runs, &result{Workload: "embed-churn", Metrics: map[string]metricValue{
				"ingest_edges_per_s": {Value: v, Unit: "edges/s"},
			}})
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *suite) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, s); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("old.json", mk(100, 101, 99))
	if err := compareSuites(base, write("same.json", mk(98, 100, 102))); err != nil {
		t.Errorf("unchanged runs: %v", err)
	}
	if err := compareSuites(base, write("slow.json", mk(70, 71, 69))); err == nil {
		t.Error("a 30% drop in throughput was not reported")
	}
	if err := compareSuites(base, write("noisy.json", mk(60, 100, 140))); err != nil {
		t.Errorf("runs too noisy to resolve were reported as a regression: %v", err)
	}
}
