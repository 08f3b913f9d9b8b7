package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/similarity"
	"github.com/vossketch/vos/internal/stream"
)

var update = flag.Bool("update", false, "rewrite testdata/tables_scale0.01.golden from this tree")

const goldenPath = "testdata/tables_scale0.01.golden"

// TestTablesGolden regenerates what `vosbench -experiment all -scale 0.01`
// prints — every table, in its order, at the defaults — and compares it with
// the checked-in text, so that a refactor of the harness or of a baseline
// shows as a diff of table cells (the run is deterministic). The two columns
// of fig-2 that are timings are masked, and fig-2's Process loops are not
// run: its labels and notes are what is pinned. fig3b/d run all four
// datasets (≈17 s) and are skipped under -short.
//
// A change that is meant to move a cell regenerates the file with
//
//	go test ./internal/experiments -run TestTablesGolden -update
//
// and the golden's diff is reviewed with it.
func TestTablesGolden(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update needs every table: run it without -short")
	}
	real := timeUpdates
	timeUpdates = func(similarity.Estimator, []stream.Edge) time.Duration { return 0 }
	t.Cleanup(func() { timeUpdates = real })

	// What vosbench's registry prints, in its order.
	order := []string{"fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig3d",
		"abl-lambda", "abl-load", "abl-dense", "abl-delbias", "compare"}
	byID := map[string]*Table{}
	add := func(err error, tables ...*Table) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range tables {
			byID[tbl.ID] = tbl
		}
	}
	for _, fn := range []func(Options) (*Table, error){Fig2a, Fig2b, AblLambda, AblLoad, AblDense, AblDelBias, Compare} {
		tbl, err := fn(Options{})
		add(err, tbl)
	}
	for _, id := range []string{"fig2a", "fig2b"} {
		for _, row := range byID[id].Rows {
			row[2], row[3] = "-", "-" // seconds, ns/edge
		}
	}
	fig3a, fig3c, err := Fig3TimeSeries(Options{})
	add(err, fig3a, fig3c)
	if !testing.Short() {
		fig3b, fig3d, err := Fig3Final(Options{})
		add(err, fig3b, fig3d)
	}

	var got bytes.Buffer
	for _, id := range order {
		if tbl := byID[id]; tbl != nil {
			if err := tbl.Render(&got); err != nil {
				t.Fatal(err)
			}
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(golden)
	if testing.Short() {
		want = dropTables(want, "fig3b", "fig3d")
	}
	if got.String() != want {
		t.Errorf("tables differ from %s (regenerate with -update if the change is meant):\n%s",
			goldenPath, firstDifference(got.String(), want))
	}
}

// dropTables removes the rendered tables with the given ids from text: a
// table runs from its "== id:" line to the blank line that ends it.
func dropTables(text string, ids ...string) string {
	for _, id := range ids {
		start := strings.Index(text, "== "+id+":")
		end := start + strings.Index(text[start:], "\n\n") + 2
		text = text[:start] + text[end:]
	}
	return text
}

// firstDifference shows the first line on which got and want part.
func firstDifference(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("one is a prefix of the other: %d lines against %d", len(g), len(w))
}
