package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"github.com/vossketch/vos/internal/cpu"
	"github.com/vossketch/vos/internal/hashing"
	"github.com/vossketch/vos/internal/stream"
)

// writeShapes are the repository benchmark's two sketch shapes: embed-churn's
// classic m = 2^21, k = 6,400 and udp-window-ann's fast m = 2^20, k = 1,600.
var writeShapes = []Config{
	{MemoryBits: 1 << 21, SketchBits: 6400, Seed: 0x1CDE2019},
	{MemoryBits: 1 << 20, SketchBits: 1600, Seed: 0x1CDE2019, Family: hashing.KindFast},
}

// referencePositions is togglePositions without the family's vector body:
// the per-edge loop it falls back to.
func referencePositions(v *VOS, pos []uint64, edges []stream.Edge) {
	for i, e := range edges {
		pos[i] = v.position(e.User, v.slot(e.Item))
	}
}

// TestTogglePositionsMatchPosition: every block length up to ProcessBatch's
// 256 at both benchmark shapes, extreme and random keys, each edge's
// position is f_ψ(item)(user), on the dispatched body and on the Go loop
// alone — and stream.Edge is laid out as the vector body reads it.
func TestTogglePositionsMatchPosition(t *testing.T) {
	t.Run("dispatched", testTogglePositionsMatchPosition)
	defer cpu.GoLoopsOnly()()
	t.Run("go", testTogglePositionsMatchPosition)
}

func testTogglePositionsMatchPosition(t *testing.T) {
	var e stream.Edge
	if unsafe.Sizeof(e) != 24 || unsafe.Offsetof(e.User) != 0 || unsafe.Offsetof(e.Item) != 8 {
		t.Fatalf("stream.Edge: size %d, user at %d, item at %d; want 24, 0, 8",
			unsafe.Sizeof(e), unsafe.Offsetof(e.User), unsafe.Offsetof(e.Item))
	}
	rng := rand.New(rand.NewSource(11))
	edges := []stream.Edge{
		{User: 0, Item: 0}, {User: stream.MaxUser, Item: ^stream.Item(0), Op: stream.Delete},
	}
	for len(edges) < 2*blockLen {
		edges = append(edges, stream.Edge{User: stream.User(rng.Uint64() >> 1), Item: stream.Item(rng.Uint64()), Op: stream.Op(rng.Intn(2))})
	}
	for _, cfg := range writeShapes {
		v := MustNew(cfg)
		var got, want [blockLen]uint64
		for n := 1; n <= blockLen; n++ {
			blk := edges[n : 2*n]
			v.togglePositions(got[:n], blk)
			referencePositions(v, want[:n], blk)
			if !slices.Equal(got[:n], want[:n]) {
				t.Fatalf("%v family, %d edges: togglePositions %v, want %v", cfg.Family, n, got[:n], want[:n])
			}
		}
	}
}

// BenchmarkTogglePositions times the write path's hash alone at both
// benchmark shapes over 256-edge blocks of a Zipf stream over 20,000 users
// and 2^16 items: togglePositions, "dispatched" on the vector body where the
// CPU has it, "go" on the Go loop a host without AVX-512 runs.
func BenchmarkTogglePositions(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.6, 8, 20_000-1)
	edges := make([]stream.Edge, 64*blockLen)
	for i := range edges {
		edges[i] = stream.Edge{User: stream.User(zipf.Uint64()), Item: stream.Item(rng.Intn(1 << 16))}
	}
	for _, cfg := range writeShapes {
		v := MustNew(cfg)
		var pos [blockLen]uint64
		for _, body := range []string{"dispatched", "go"} {
			b.Run(fmt.Sprintf("%v/m=%d/k=%d/%s", cfg.Family, cfg.MemoryBits, cfg.SketchBits, body), func(b *testing.B) {
				if body == "go" {
					defer cpu.GoLoopsOnly()()
				}
				for i := 0; i < b.N; i++ {
					off := i % 64 * blockLen
					v.togglePositions(pos[:], edges[off:off+blockLen])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blockLen), "ns/edge")
			})
		}
	}
}
