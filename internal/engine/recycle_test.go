package engine

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/vossketch/vos/internal/core"
	"github.com/vossketch/vos/internal/resident"
	"github.com/vossketch/vos/internal/stream"
)

// seqStream is a logical stream whose edges say which they are: producer p's
// n-th edge carries (p, n) in its Item and its user follows from the two.
type seqStream struct{ producers, each int }

func (q seqStream) edge(p, n int) stream.Edge {
	return stream.Edge{User: stream.User((n*7 + p*13) % 200), Item: stream.Item(p)<<32 | stream.Item(n), Op: stream.Insert}
}

// seqReader is what one journal reader has been handed so far. Its cursor
// only moves forward, fallbacks included, so it is handed an edge of the
// stream once at most — and a batch buffer recycled under it shows edges of
// later batches, which it is then handed again in their own. (Not their
// order: two producers' batches for one shard may pass each other on the way
// to the queue.)
type seqReader struct {
	q       seqStream
	who     string
	seen    [][]bool // [p][n]
	batches int
}

func (q seqStream) reader(who string) *seqReader {
	r := &seqReader{q: q, who: who, seen: make([][]bool, q.producers)}
	for p := range r.seen {
		r.seen[p] = make([]bool, q.each)
	}
	return r
}

// read checks edges the reader was handed.
func (r *seqReader) read(t *testing.T, edges []stream.Edge) {
	if len(edges) > 0 {
		r.batches++
	}
	for _, ed := range edges {
		p, n := int(ed.Item>>32), int(ed.Item&math.MaxUint32)
		if p >= r.q.producers || n >= r.q.each || ed != r.q.edge(p, n) {
			t.Errorf("%s was handed %v, which is no edge of the stream", r.who, ed)
			return
		}
		if r.seen[p][n] {
			t.Errorf("%s was handed producer %d's edge %d twice: a batch it read was not the one the worker applied", r.who, p, n)
			return
		}
		r.seen[p][n] = true
	}
}

// TestJournalReaderNeverSeesAReusedBatch: a shard's journal holds two
// batches, so every batch applied evicts one and its buffer goes back to the
// producers, while the journal's three readers — a view refresh
// (Engine.since), a remote reader's ExportSince chain and the approximate
// top-K index's range read — are between a cut and its last batch. Each
// checks every edge it is handed against the logical stream (the race detector
// checks the memory itself), and the remote reader's own sketch, fed by
// nothing but the chain, ends bit-identical to one sketch over the stream.
func TestJournalReaderNeverSeesAReusedBatch(t *testing.T) {
	cfg := Config{
		Sketch:    core.Config{MemoryBits: 1 << 15, SketchBits: 256, Seed: 7}, // journalMax = 32 edges
		Shards:    2,
		BatchSize: 16,
		QueueSize: 64,
		ANN:       &ANNConfig{Bands: 16, Rows: 8},
	}
	e := MustNew(cfg)
	defer e.Close()
	if got := int(e.journalMax) / cfg.BatchSize; got != 2 {
		t.Fatalf("the journal holds %d batches, the test wants 2", got)
	}
	const producers, each = 3, 4000
	q := seqStream{producers, each}

	var writing sync.WaitGroup
	for p := 0; p < producers; p++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			call := make([]stream.Edge, 0, 40)
			for n := 0; n < each; {
				call = call[:0]
				for size := 1 + (n+p)%40; len(call) < size && n < each; n++ {
					call = append(call, q.edge(p, n))
				}
				if err := e.ProcessBatch(call); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched() // a reader's cut, to be of any use, has to fall between two evictions
			}
		}()
	}
	var done atomic.Bool
	var reading sync.WaitGroup
	// loop runs round until the producers are done, and once more after that.
	loop := func(round func()) {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for more := true; more; {
				more = !done.Load()
				round()
			}
		}()
	}

	refresh := q.reader("a view refresh")
	st := stamp{at: make([]uint64, cfg.Shards)}
	loop(func() {
		e.stateMu.RLock()
		if e.since(&st, func(b []stream.Edge) { refresh.read(t, b) }) != resident.Replayed {
			st = e.rebuild().Stamp
		}
		e.stateMu.RUnlock()
		e.Query(1, 2) // the engine's own pair of views, through the same cut
	})

	export := q.reader("ExportSince")
	remote, cursor := core.MustNew(cfg.Sketch), ""
	loop(func() {
		d, err := e.ExportSince(cursor)
		if err != nil {
			t.Error(err)
			return
		}
		if cursor = d.Cursor; d.Full != nil {
			if remote, err = core.UnmarshalVOS(d.Full); err != nil {
				t.Error(err)
			}
			return
		}
		export.read(t, d.Edges)
		remote.ProcessBatch(d.Edges)
	})

	probe := q.reader("an index read")
	at := make([]uint64, cfg.Shards)
	loop(func() {
		if _, err := e.TopKApprox(1, 5); err != nil { // the index's own read (annRead)
			t.Error(err)
		}
		for i, s := range e.shards { // and one like it, checked
			cut, end, _ := s.journalRange(at[i], math.MaxUint64)
			runtime.Gosched() // the worker evicts what was cut, now or never
			for _, en := range cut {
				probe.read(t, en.batch)
			}
			s.journalDone()
			at[i] = end
		}
	})

	writing.Wait()
	e.Flush()
	done.Store(true)
	reading.Wait()

	t.Logf("batches checked: %d by the refresh, %d by the export chain, %d by the index read; %d evicted",
		refresh.batches, export.batches, probe.batches, e.journalEvicted.Load())
	if refresh.batches+export.batches+probe.batches == 0 {
		t.Error("no reader was ever handed a batch")
	}
	single := core.MustNew(cfg.Sketch)
	for p := 0; p < producers; p++ {
		for n := 0; n < each; n++ {
			single.Process(q.edge(p, n))
		}
	}
	want, err := single.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for who, sk := range map[string]interface{ MarshalBinary() ([]byte, error) }{"the engine": e, "the remote reader's sketch": remote} {
		if got, err := sk.MarshalBinary(); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s differs from one sketch over the logical stream (err %v)", who, err)
		}
	}
}
