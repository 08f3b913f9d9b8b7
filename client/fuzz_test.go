package client

import (
	"bytes"
	"errors"
	"testing"

	"github.com/vossketch/vos/internal/stream"
)

// FuzzDecodeSketchDelta throws arbitrary bodies and header values at the
// decoder of GET /v1/cluster/sketch responses — the one place a gateway
// parses what a backend sent before folding it into its resident views. It
// must never panic; a body with the stream magic is a delta and is either
// decoded whole, under a cursor, or refused with the stream format's typed
// error; anything else is passed on as a full export, untouched, for
// core.UnmarshalVOS (fuzzed on its own) to judge.
func FuzzDecodeSketchDelta(f *testing.F) {
	var buf bytes.Buffer
	_ = stream.WriteBinary(&buf, []stream.Edge{{User: 1, Item: 2, Op: stream.Insert}, {User: 3, Item: 4, Op: stream.Delete}})
	good := buf.Bytes()
	f.Add(good, "9f.0.0:1,2", "")
	f.Add(good, "", "")
	f.Add(good[:len(good)-1], "9f.0.0:1,2", "")
	f.Add([]byte("VOSSTRM1"), "c", "")
	f.Add([]byte("VOS1 and then whatever a sketch holds"), "9f.0.0:1,2", "journal")
	f.Add([]byte{}, "", "epoch")

	f.Fuzz(func(t *testing.T, body []byte, cursor, fallback string) {
		d, err := decodeSketchDelta(body, cursor, fallback)
		switch {
		case !stream.IsBinary(body):
			if err != nil || !bytes.Equal(d.Full, body) || d.Edges != nil || d.Cursor != cursor || d.Fallback != fallback {
				t.Fatalf("a body without the stream magic must pass through as the full export: %+v, %v", d, err)
			}
		case err != nil:
			if cursor != "" && !errors.Is(err, stream.ErrBadFormat) {
				t.Fatalf("delta refused with an untyped error: %v", err)
			}
		default:
			if d.Full != nil || d.Cursor != cursor || cursor == "" {
				t.Fatalf("accepted delta: %+v under cursor %q", d, cursor)
			}
			var out bytes.Buffer
			if err := stream.WriteBinary(&out, d.Edges); err != nil {
				t.Fatal(err)
			}
			again, err := stream.ReadBinary(&out)
			if err != nil || len(again) != len(d.Edges) {
				t.Fatalf("accepted delta does not round-trip: %d → %d edges, %v", len(d.Edges), len(again), err)
			}
		}
	})
}
