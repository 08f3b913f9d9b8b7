package engine

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/stream"
)

// TestImportSketchParity is the handoff exactness bar: split a fully
// dynamic stream across two donor engines, export both, import both into
// a third engine that ingested nothing — the receiver must serialize and
// answer bit-identically to a single sketch over the whole stream.
func TestImportSketchParity(t *testing.T) {
	cfg := testConfig()
	edges := feasibleStream(12_000, 150, 0.25, 31)

	single := core.MustNew(cfg)
	for _, ed := range edges {
		single.Process(ed)
	}

	donorA := MustNew(Config{Sketch: cfg, Shards: 2})
	donorB := MustNew(Config{Sketch: cfg, Shards: 3})
	defer donorA.Close()
	defer donorB.Close()
	for _, ed := range edges {
		dst := donorA
		if ed.User%2 == 1 {
			dst = donorB
		}
		if err := dst.Process(ed); err != nil {
			t.Fatal(err)
		}
	}

	recv := MustNew(Config{Sketch: cfg, Shards: 2})
	defer recv.Close()
	for _, donor := range []*Engine{donorA, donorB} {
		state, err := donor.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := recv.ImportSketch(state); err != nil {
			t.Fatal(err)
		}
	}

	assertParity(t, recv, single, 50)
	got, err := recv.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("receiver serializes differently from the whole-stream sketch")
	}
}

// TestImportSketchThenIngest: imported state and locally ingested edges
// must compose — the import lands in the recovery base, shards keep their
// own deltas, and the merge covers both.
func TestImportSketchThenIngest(t *testing.T) {
	cfg := testConfig()
	edges := feasibleStream(8_000, 100, 0.2, 17)
	half := len(edges) / 2

	single := core.MustNew(cfg)
	for _, ed := range edges {
		single.Process(ed)
	}

	donor := MustNew(Config{Sketch: cfg, Shards: 2})
	defer donor.Close()
	if err := donor.ProcessBatch(edges[:half]); err != nil {
		t.Fatal(err)
	}
	donor.Flush()
	state, err := donor.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	recv := MustNew(Config{Sketch: cfg, Shards: 3})
	defer recv.Close()
	if err := recv.ImportSketch(state); err != nil {
		t.Fatal(err)
	}
	if err := recv.ProcessBatch(edges[half:]); err != nil {
		t.Fatal(err)
	}
	recv.Flush()
	assertParity(t, recv, single, 40)
}

// TestImportSketchRejects covers the refusal surface: corrupt bytes carry
// the typed core.ErrCorrupt, family mismatches the typed
// core.ErrFamilyMismatch, differing sketch configs and windowed engines
// are refused outright, and a closed engine answers ErrClosed.
func TestImportSketchRejects(t *testing.T) {
	cfg := testConfig()
	donor := core.MustNew(cfg)
	donor.Process(stream.Edge{User: 1, Item: 2, Op: stream.Insert})
	state, err := donor.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("corrupt", func(t *testing.T) {
		e := MustNew(Config{Sketch: cfg, Shards: 1})
		defer e.Close()
		bad := append([]byte(nil), state...)
		bad[0] ^= 0xFF // magic
		if err := e.ImportSketch(bad); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("bad-magic import: want ErrCorrupt, got %v", err)
		}
		if err := e.ImportSketch(state[:10]); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("truncated import: want ErrCorrupt, got %v", err)
		}
		if err := e.ImportSketch(state[:len(state)-3]); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("clipped-array import: want ErrCorrupt, got %v", err)
		}
	})

	t.Run("family mismatch", func(t *testing.T) {
		e := MustNew(Config{Sketch: fastTestConfig(), Shards: 1})
		defer e.Close()
		if err := e.ImportSketch(state); !errors.Is(err, core.ErrFamilyMismatch) {
			t.Fatalf("cross-family import: want ErrFamilyMismatch, got %v", err)
		}
	})

	t.Run("config mismatch", func(t *testing.T) {
		other := cfg
		other.SketchBits = cfg.SketchBits * 2
		e := MustNew(Config{Sketch: other, Shards: 1})
		defer e.Close()
		err := e.ImportSketch(state)
		if err == nil || !strings.Contains(err.Error(), "does not match") {
			t.Fatalf("cross-config import: want config mismatch error, got %v", err)
		}
	})

	t.Run("windowed", func(t *testing.T) {
		e := MustNew(Config{
			Sketch:        cfg,
			Shards:        1,
			Window:        &WindowConfig{Buckets: 4, BucketDuration: time.Second},
			FlushInterval: -1,
		})
		defer e.Close()
		err := e.ImportSketch(state)
		if err == nil || !strings.Contains(err.Error(), "windowed") {
			t.Fatalf("windowed import: want refusal, got %v", err)
		}
	})

	t.Run("closed", func(t *testing.T) {
		e := MustNew(Config{Sketch: cfg, Shards: 1})
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if err := e.ImportSketch(state); !errors.Is(err, ErrClosed) {
			t.Fatalf("import into closed engine: want ErrClosed, got %v", err)
		}
	})
}

// TestImportSketchDurable pins the durability contract of the import ack:
// the imported edges exist in no local WAL record, so the ack must mean a
// covering checkpoint was written — a hard stop right after the ack, then
// a recovery from disk, must still show the imported state.
func TestImportSketchDurable(t *testing.T) {
	cfg := testConfig()
	edges := feasibleStream(6_000, 80, 0.2, 23)

	single := core.MustNew(cfg)
	for _, ed := range edges {
		single.Process(ed)
	}
	donor := MustNew(Config{Sketch: cfg, Shards: 2})
	defer donor.Close()
	if err := donor.ProcessBatch(edges); err != nil {
		t.Fatal(err)
	}
	donor.Flush()
	state, err := donor.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	recv := MustOpen(durableConfig(dir, 2))
	if err := recv.ImportSketch(state); err != nil {
		t.Fatal(err)
	}
	// No Flush, no Close: hard stop the instant after the import acked.
	_ = recv

	recovered := MustOpen(durableConfig(dir, 2))
	defer recovered.Close()
	assertParity(t, recovered, single, 40)
}

// TestImportSketchDoubleCancels documents the non-idempotence hazard the
// cluster tier must design around: importing the same state twice
// XOR-cancels the parity array (similarity state returns to empty) while
// the summed cardinality counters double-count — corruption, not a no-op.
func TestImportSketchDoubleCancels(t *testing.T) {
	cfg := testConfig()
	donor := MustNew(Config{Sketch: cfg, Shards: 1})
	defer donor.Close()
	if err := donor.ProcessBatch(feasibleStream(2_000, 40, 0.2, 5)); err != nil {
		t.Fatal(err)
	}
	donor.Flush()
	state, err := donor.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	recv := MustNew(Config{Sketch: cfg, Shards: 1})
	defer recv.Close()
	if err := recv.ImportSketch(state); err != nil {
		t.Fatal(err)
	}
	if err := recv.ImportSketch(state); err != nil {
		t.Fatal(err)
	}
	if st := recv.Stats(); st.OnesCount != 0 {
		t.Fatalf("parity array after double import has %d set bits, want 0 (cancelled)", st.OnesCount)
	}
	for u := stream.User(0); u < 40; u += 3 {
		if got, want := recv.Cardinality(u), 2*donor.Cardinality(u); got != want {
			t.Fatalf("Cardinality(%d) after double import = %d, want double-counted %d", u, got, want)
		}
	}
}

// TestImportSketchRacingReaders: an import writes every shard from outside
// the workers, and a read racing it must answer from the state before it or
// the state after it, never from a mix — not a view merged from shard 0
// after the import and shard 1 before it, not a counter read beside a
// half-folded array. A sketch of the same elements with every op inverted is
// the imported sketch's inverse (the same parity, the negated counters), so
// importing the two in turn flips the engine between exactly two states, and
// every answer a reader can get belongs to one of them.
func TestImportSketchRacingReaders(t *testing.T) {
	const users = 24
	cfg := testConfig()
	local, remote := feasibleStream(3000, users, 0.2, 5), feasibleStream(3000, users, 0.2, 6)
	e := MustNew(Config{Sketch: cfg, Shards: 3, FlushInterval: -1})
	defer e.Close()
	if err := e.ProcessBatch(local); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	var states [2]*core.VOS // before an odd import, after it
	for i := range states {
		states[i] = core.MustNew(cfg)
		states[i].ProcessBatch(local)
	}
	imported := core.MustNew(cfg)
	imported.ProcessBatch(remote)
	if err := states[1].Merge(imported); err != nil {
		t.Fatal(err)
	}
	inverse := core.MustNew(cfg)
	for _, ed := range remote {
		inverse.Process(stream.Edge{User: ed.User, Item: ed.Item, Op: 1 - ed.Op})
	}
	var data [2][]byte
	for i, sk := range []*core.VOS{imported, inverse} {
		var err error
		if data[i], err = sk.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	var card [2][users]int64
	var est [2][users][users]core.Estimate
	for i, sk := range states {
		for u := stream.User(0); u < users; u++ {
			card[i][u] = sk.Cardinality(u)
			for v := stream.User(0); v < users; v++ {
				est[i][u][v] = sk.Query(u, v)
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u, v := stream.User(i%users), stream.User(i/users%users)
				if got := e.Cardinality(u); got != card[0][u] && got != card[1][u] {
					t.Errorf("Cardinality(%d) = %d: neither the pre-import %d nor the post-import %d", u, got, card[0][u], card[1][u])
					return
				}
				if got := e.Query(u, v); got != est[0][u][v] && got != est[1][u][v] {
					t.Errorf("Query(%d,%d) = %+v: neither the pre-import %+v nor the post-import %+v", u, v, got, est[0][u][v], est[1][u][v])
					return
				}
			}
		}(r)
	}
	// At least 40 imports, and then as many more (bounded) as it takes for
	// a reader to be scheduled between two of them: on a busy two-core
	// host 40 imports can finish before any reader has run.
	for i := 0; i < 40 || (i < 40000 && e.SnapshotStats().RebuildsImport == 0); i++ {
		if err := e.ImportSketch(data[i%2]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if e.SnapshotStats().RebuildsImport == 0 {
		t.Error("no read rebuilt its view for an import: the readers never raced one")
	}
}
