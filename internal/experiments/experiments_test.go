package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/vossketch/vos/internal/gen"
	"github.com/vossketch/vos/internal/similarity"
	"github.com/vossketch/vos/internal/stream"
)

// tinyOptions shrink every knob so the full pipeline runs in well under a
// second; integration coverage, not statistical power.
func tinyOptions() Options {
	return Options{
		Scale:        0.002,
		Seed:         3,
		K32:          50,
		Lambda:       2,
		TopUsers:     30,
		MaxPairs:     60,
		Checkpoints:  4,
		RuntimeUsers: 50,
		RuntimeEdges: 2000,
		RuntimeKs:    []int{1, 16},
	}
}

func TestBuildDataset(t *testing.T) {
	ds := BuildDataset(gen.YouTube, tinyOptions())
	if len(ds.Edges) == 0 {
		t.Fatal("empty dataset")
	}
	if err := stream.Validate(ds.Edges); err != nil {
		t.Fatalf("dataset infeasible: %v", err)
	}
	if ds.Profile.Name != "YouTube" {
		t.Errorf("profile name %q", ds.Profile.Name)
	}
}

func TestBuildDatasetDeterministic(t *testing.T) {
	a := BuildDataset(gen.YouTube, tinyOptions())
	b := BuildDataset(gen.YouTube, tinyOptions())
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("dataset not deterministic")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestTrackedPairs(t *testing.T) {
	opts := tinyOptions()
	ds := BuildDataset(gen.YouTube, opts)
	pairs, median, err := TrackedPairs(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 || len(pairs) > opts.MaxPairs {
		t.Fatalf("%d pairs", len(pairs))
	}
	if median < 1 {
		t.Errorf("median common %d, want >= 1", median)
	}
}

func TestFig2aShape(t *testing.T) {
	opts := tinyOptions()
	tbl, err := Fig2a(opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := len(opts.RuntimeKs) * len(similarity.Methods)
	if len(tbl.Rows) != wantRows {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), wantRows)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig2a") {
		t.Error("render missing ID")
	}
}

func TestFig2bShape(t *testing.T) {
	tbl, err := Fig2b(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4*len(similarity.Methods) {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
}

func TestRunAccuracyProducesAllSeries(t *testing.T) {
	opts := tinyOptions()
	r, err := RunAccuracy(gen.YouTube, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range similarity.Methods {
		s := r.AAPE[m]
		if len(s) < opts.Checkpoints || len(s) != len(r.T) {
			t.Fatalf("%s AAPE series incomplete", m)
		}
		if len(r.ARMSE[m]) != len(r.T) {
			t.Fatalf("%s ARMSE series missing", m)
		}
		for _, v := range s {
			if v < 0 {
				t.Errorf("%s negative AAPE %v", m, v)
			}
		}
	}
	// ARMSE is bounded by 1 (both Ĵ and J live in [0, 1]).
	for _, m := range similarity.Methods {
		for _, v := range r.ARMSE[m] {
			if v < 0 || v > 1 {
				t.Errorf("%s ARMSE %v out of [0, 1]", m, v)
			}
		}
	}
}

func TestFig3TimeSeriesTables(t *testing.T) {
	aape, armse, err := Fig3TimeSeries(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if aape.ID != "fig3a" || armse.ID != "fig3c" {
		t.Errorf("ids %s/%s", aape.ID, armse.ID)
	}
	if len(aape.Rows) == 0 || len(aape.Rows) != len(armse.Rows) {
		t.Errorf("row counts %d/%d", len(aape.Rows), len(armse.Rows))
	}
	if len(aape.Header) != 1+len(similarity.Methods) {
		t.Errorf("header %v", aape.Header)
	}
}

func TestAblationTables(t *testing.T) {
	opts := tinyOptions()
	for name, run := range map[string]func(Options) (*Table, error){
		"abl-lambda": AblLambda,
		"abl-load":   AblLoad,
		"abl-dense": func(o Options) (*Table, error) {
			return AblDense(o)
		},
		"abl-delbias": AblDelBias,
	} {
		tbl, err := run(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", name)
		}
		if tbl.ID != name {
			t.Errorf("%s: id %q", name, tbl.ID)
		}
	}
}

func TestComparePairs(t *testing.T) {
	opts := tinyOptions()
	ds := BuildDataset(gen.YouTube, opts)
	pairs, _, err := TrackedPairs(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	est, err := similarity.New(similarity.MethodVOS, opts.normalized().budget(ds.Profile), uint64(opts.Seed))
	if err != nil {
		t.Fatal(err)
	}
	c, err := measureFinal(ds.Edges, []similarity.Estimator{est}, pairs[:5])
	if err != nil {
		t.Fatal(err)
	}
	if len(c.TruthS) != 5 || len(c.EstS[0]) != 5 || c.T != uint64(len(ds.Edges)) {
		t.Fatalf("%d truths, %d estimates at t = %d", len(c.TruthS), len(c.EstS[0]), c.T)
	}
	for i := range c.TruthS {
		if c.TruthS[i] < 0 || c.TruthJ[i] < 0 || c.TruthJ[i] > 1 {
			t.Errorf("implausible truth for pair %d: s = %v, J = %v", i, c.TruthS[i], c.TruthJ[i])
		}
	}
	if _, err := similarity.New("bogus", opts.normalized().budget(ds.Profile), uint64(opts.Seed)); err == nil {
		t.Error("bogus method accepted")
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := &Table{
		ID:     "x",
		Title:  "T",
		Header: []string{"a", "b"},
	}
	tbl.AddNote("note %d", 1)
	tbl.AddRow("1", "with,comma")
	var buf bytes.Buffer
	if err := tbl.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# note 1") || !strings.Contains(out, `"with,comma"`) {
		t.Errorf("csv output: %q", out)
	}
}

func TestOptionsNormalization(t *testing.T) {
	var zero Options
	n := zero.normalized()
	d := Defaults()
	if n.Scale != d.Scale || n.K32 != d.K32 || len(n.RuntimeKs) != len(d.RuntimeKs) {
		t.Errorf("normalized zero != defaults: %+v", n)
	}
	// Non-zero fields survive.
	custom := Options{K32: 7}.normalized()
	if custom.K32 != 7 {
		t.Error("normalization clobbered explicit field")
	}
}

func TestMedianInt(t *testing.T) {
	if medianInt(nil) != 0 {
		t.Error("empty median")
	}
	if got := medianInt([]int{5, 1, 9}); got != 5 {
		t.Errorf("median = %d", got)
	}
	if got := medianInt([]int{4, 1, 3, 2}); got != 3 {
		t.Errorf("even median = %d", got)
	}
}

func TestCompareTable(t *testing.T) {
	tbl, err := Compare(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "compare" {
		t.Errorf("id %q", tbl.ID)
	}
	if len(tbl.Rows) != len(similarity.Methods) {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// Quantile columns must be non-decreasing left to right (p50 ≤ p90 ≤
	// p99 ≤ max) for every method.
	for _, row := range tbl.Rows {
		var prev float64
		for col := 2; col < len(row); col++ {
			var v float64
			if _, err := fmt.Sscanf(row[col], "%f", &v); err != nil {
				t.Fatalf("cell %q not numeric", row[col])
			}
			if v < prev {
				t.Errorf("%s: quantiles not monotone: %v", row[0], row)
				break
			}
			prev = v
		}
	}
}

func TestDatasetOptionSelectsProfile(t *testing.T) {
	opts := tinyOptions()
	opts.Dataset = "Flickr"
	ds := BuildDataset(opts.profile(), opts)
	if ds.Profile.Name != "Flickr" {
		t.Errorf("profile %q", ds.Profile.Name)
	}
	opts.Dataset = "bogus"
	defer func() {
		if recover() == nil {
			t.Error("unknown dataset should panic in profile()")
		}
	}()
	opts.profile()
}

func TestRenderJSONRoundTrips(t *testing.T) {
	tbl := &Table{
		ID:     "query",
		Title:  "t",
		Header: []string{"op", "ns/op"},
		Rows:   [][]string{{"pair", "123"}, {"topk", "456"}},
		Notes:  []string{"n1"},
	}
	var buf bytes.Buffer
	if err := tbl.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID    string              `json:"id"`
		Notes []string            `json:"notes"`
		Rows  []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("RenderJSON emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if got.ID != "query" || len(got.Rows) != 2 || got.Rows[1]["ns/op"] != "456" || got.Notes[0] != "n1" {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}
