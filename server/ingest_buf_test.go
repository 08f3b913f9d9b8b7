package server

import (
	"testing"

	"github.com/vossketch/vos"
)

// TestIngestBufDropsWhatOutgrewThePool: the pool keeps the buffers of
// ordinary batches and lets go of any that one huge batch grew past
// maxPooledBytes, so resident memory does not ratchet up to the largest
// request ever seen.
func TestIngestBufDropsWhatOutgrewThePool(t *testing.T) {
	small := &reqBuf{b: make([]byte, 4<<10), edges: make([]vos.Edge, 1024)}
	small.release()
	if small.b == nil || small.edges == nil {
		t.Error("release dropped the buffers of a 1,024-edge batch")
	}
	huge := &reqBuf{b: make([]byte, maxPooledBytes+1), edges: make([]vos.Edge, maxPooledBytes/24+1)}
	huge.release()
	if huge.b != nil || huge.edges != nil {
		t.Errorf("release kept %d body bytes and %d edges", cap(huge.b), cap(huge.edges))
	}
}
