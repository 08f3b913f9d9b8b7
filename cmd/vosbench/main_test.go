package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/vossketch/vos/internal/experiments"
)

func TestParseKs(t *testing.T) {
	got, err := parseIntList("1, 10,100", "-runtime-ks")
	if err != nil || len(got) != 3 || got[2] != 100 {
		t.Errorf("parseIntList = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0", "-5", "1,,x"} {
		if _, err := parseIntList(bad, "-runtime-ks"); err == nil {
			t.Errorf("parseIntList(%q) accepted", bad)
		}
	}
	// Trailing comma tolerated.
	if got, err := parseIntList("5,", "-runtime-ks"); err != nil || len(got) != 1 {
		t.Errorf("trailing comma: %v, %v", got, err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := run("nope", experiments.Options{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	opts := experiments.Options{
		Scale: 0.002, Seed: 3, K32: 20, Lambda: 2,
		TopUsers: 20, MaxPairs: 30, Checkpoints: 3,
		RuntimeUsers: 40, RuntimeEdges: 500, RuntimeKs: []int{1, 8},
	}
	tables, err := run("abl-dense", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "abl-dense" {
		t.Errorf("tables = %v", tables)
	}

	// "all" is every registered id, once each, in registry order; a
	// two-panel id alone yields only its own panel.
	all, err := run("all", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(registry) {
		t.Fatalf("all ran %d tables, registry has %d ids", len(all), len(registry))
	}
	for i, e := range registry {
		if all[i].ID != e.id {
			t.Errorf("all[%d] = %q, want %q", i, all[i].ID, e.id)
		}
	}
	tables, err = run("fig3c", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "fig3c" {
		t.Errorf("fig3c alone = %v", tables)
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	tbl := &experiments.Table{ID: "x", Title: "t", Header: []string{"a"}}
	tbl.AddRow("1")
	if err := writeCSV(dir, tbl); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "x.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a\n1\n" {
		t.Errorf("csv content %q", data)
	}
}
