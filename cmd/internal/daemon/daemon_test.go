package daemon

import (
	"flag"
	"testing"
)

// TestSharedFlags pins the flags both daemons take: scripts and unit files
// are written against these names and defaults.
func TestSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	AddFlags(fs, "127.0.0.1:1234")
	want := map[string]string{
		"listen":             "127.0.0.1:1234",
		"udp-listen":         "",
		"max-batch-bytes":    "0",
		"max-inflight-bytes": "0",
		"read-timeout":       "30s",
		"drain-timeout":      "10s",
		"verbose":            "false",
	}
	fs.VisitAll(func(f *flag.Flag) {
		if def, ok := want[f.Name]; !ok || f.DefValue != def {
			t.Errorf("flag -%s default %q: not one of the shared flags %v", f.Name, f.DefValue, want)
		}
		delete(want, f.Name)
	})
	for name := range want {
		t.Errorf("shared flag -%s is not declared", name)
	}
}

// TestSketchFlags pins the sketch identity flags vosd and vosinspect share:
// a directory written by one is read by the other under the same defaults.
func TestSketchFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	SketchFlags(fs)
	want := map[string]string{
		"memory-bits": "4194304",
		"sketch-bits": "4096",
		"seed":        "1",
		"hash-family": "classic",
	}
	fs.VisitAll(func(f *flag.Flag) {
		if def, ok := want[f.Name]; !ok || f.DefValue != def {
			t.Errorf("flag -%s default %q: not one of the sketch flags %v", f.Name, f.DefValue, want)
		}
		delete(want, f.Name)
	})
	for name := range want {
		t.Errorf("sketch flag -%s is not declared", name)
	}
}
