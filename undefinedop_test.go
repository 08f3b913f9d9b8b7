package vos_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/client"
	"github.com/vossketch/vos/server"
)

// undefinedOp carries an Op that is neither Insert nor Delete. The element
// codec encodes it as an insert, so that is what it must mean everywhere.
var undefinedOp = []vos.Edge{
	{User: 3, Item: 1, Op: vos.Insert},
	{User: 3, Item: 2, Op: 2},
	{User: 4, Item: 1, Op: 7},
}

// TestUndefinedOpSurvivesReopen: a durable engine replays its log into the
// state it acknowledged, an edge with an undefined Op included.
func TestUndefinedOpSurvivesReopen(t *testing.T) {
	cfg := vos.EngineConfig{
		Sketch:     serviceSketchConfig(),
		Shards:     2,
		Durability: &vos.DurabilityConfig{DisableLock: true}, // the crash below is in process
	}
	dir := t.TempDir()
	eng, err := vos.OpenEngine(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ProcessBatch(undefinedOp); err != nil {
		t.Fatal(err)
	}
	live, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Cardinality(3); got != 2 {
		t.Errorf("live: cardinality of user 3 = %d, want 2", got)
	}
	// Hard stop: abandoned without Flush or Close, so the log is replayed.

	reopened, err := vos.OpenEngine(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	replayed, err := reopened.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed, live) {
		t.Error("the reopened engine's export differs from the live one's")
	}
}

// TestUndefinedOpSameInProcessAndOverHTTP: client.Ingest to a server holds
// the cardinalities the same edges give an in-process sketch.
func TestUndefinedOpSameInProcessAndOverHTTP(t *testing.T) {
	ctx := context.Background()
	sk := vos.MustNew(serviceSketchConfig())
	sk.ProcessBatch(undefinedOp)

	eng := vos.MustNewEngine(vos.EngineConfig{Sketch: serviceSketchConfig(), Shards: 2})
	defer eng.Close()
	ts := httptest.NewServer(server.New(vos.NewEngineService(eng), server.Options{}))
	defer ts.Close()
	cl := client.New(ts.URL, client.Options{Linger: -1})
	defer cl.Close()
	if err := cl.Ingest(ctx, undefinedOp); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for _, u := range []vos.User{3, 4} {
		remote, err := cl.Cardinality(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if local := sk.Cardinality(u); remote != local {
			t.Errorf("user %d: cardinality %d over HTTP, %d in process", u, remote, local)
		}
	}
}
