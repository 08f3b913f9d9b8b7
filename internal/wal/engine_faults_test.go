package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/engine"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/internal/wal"
)

// TestEngineOverFailedLog drives a durable engine on a disk whose fsync
// fails once. From that batch on, every write returns the log's latched
// error; reads go on answering from the batches acknowledged before it;
// Close returns the error and still releases the directory lock; either
// crash image reopens to the acknowledged batches, perhaps with the failed
// one; and the directory as left reopens to the acknowledged ones alone.
func TestEngineOverFailedLog(t *testing.T) {
	sketch := core.Config{MemoryBits: 1 << 16, SketchBits: 256, Seed: 7}
	batches := make([][]stream.Edge, 10)
	for b := range batches {
		for i := range 50 {
			batches[b] = append(batches[b], stream.Edge{User: stream.User(i % 13), Item: stream.Item(b*50 + i)})
		}
	}
	// prefix returns a single sketch fed the first n batches, and its bytes.
	prefix := func(n int) (*core.VOS, []byte) {
		sk := core.MustNew(sketch)
		for _, batch := range batches[:n] {
			for _, ed := range batch {
				sk.Process(ed)
			}
		}
		data, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return sk, data
	}
	cfgFor := func(dir string) engine.Config {
		return engine.Config{Sketch: sketch, Shards: 2, Durability: &engine.DurabilityConfig{Dir: dir, SegmentBytes: 1 << 10}}
	}
	// reopen opens dir and says which prefix of the batches it holds.
	reopen := func(dir string) int {
		t.Helper()
		e, err := engine.Open(cfgFor(dir))
		if err != nil {
			t.Fatalf("reopen %s: %v", filepath.Base(dir), err)
		}
		defer e.Close()
		got, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for n := len(batches); n >= 0; n-- {
			if _, want := prefix(n); bytes.Equal(got, want) {
				return n
			}
		}
		t.Fatalf("%s reopens to no prefix of the batches", filepath.Base(dir))
		return 0
	}

	disk := wal.UseFaultDisk(t)
	dir := t.TempDir()
	e, err := engine.Open(cfgFor(dir))
	if err != nil {
		t.Fatal(err)
	}
	const acked = 5
	for _, batch := range batches[:acked] {
		if err := e.ProcessBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	disk.FailNextSync()
	failed := e.ProcessBatch(batches[acked])
	if failed == nil {
		t.Fatal("ProcessBatch over a failed fsync returned nil")
	}
	for i, batch := range batches[acked+1:] {
		if err := e.ProcessBatch(batch); !errors.Is(err, failed) {
			t.Fatalf("write %d after the failure = %v, want the latched %v", i, err, failed)
		}
	}
	if _, err := e.Checkpoint(); !errors.Is(err, failed) {
		t.Fatalf("Checkpoint after the failure = %v, want the latched %v", err, failed)
	}
	ref, want := prefix(acked)
	if got, err := e.MarshalBinary(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reads after the failure do not answer from the %d acknowledged batches (%v)", acked, err)
	}
	if got, want := e.Query(1, 2), ref.Query(1, 2); got != want {
		t.Fatalf("Query after the failure = %+v, want %+v", got, want)
	}
	if err := e.Close(); !errors.Is(err, failed) {
		t.Fatalf("Close = %v, want the latched %v", err, failed)
	}
	for _, keep := range []bool{true, false} {
		img := filepath.Join(t.TempDir(), fmt.Sprintf("crash-keep=%v", keep))
		disk.Crash(t, dir, img, keep)
		if n := reopen(img); n != acked && n != acked+1 {
			t.Fatalf("crash image keep=%v reopens to %d batches, want %d, or %d with the failed one", keep, n, acked, acked+1)
		}
	}
	// Locked, as engines are by default: the failed engine's Close let go.
	// Without a crash the failed batch is gone: its caller saw the error.
	if n := reopen(dir); n != acked {
		t.Fatalf("the directory reopens to %d batches, want the %d acknowledged", n, acked)
	}
}
