package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/vossketch/vos/internal/stream"
)

func testRing() *Ring {
	return &Ring{
		Version:   1,
		RouteSeed: 7,
		Shards:    []string{"http://127.0.0.1:8081", "http://127.0.0.1:8082", "http://127.0.0.1:8083"},
	}
}

func TestRingRoundTrip(t *testing.T) {
	r := testRing()
	data, err := EncodeRing(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRing(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != r.Version || got.RouteSeed != r.RouteSeed || len(got.Shards) != len(r.Shards) {
		t.Fatalf("round trip changed the ring: %+v vs %+v", got, r)
	}
	for i := range r.Shards {
		if got.Shards[i] != r.Shards[i] {
			t.Fatalf("shard %d: %q vs %q", i, got.Shards[i], r.Shards[i])
		}
	}
}

func TestRingShardOfMatchesStream(t *testing.T) {
	r := testRing()
	for u := stream.User(0); u < 1000; u++ {
		want := stream.ShardOf(u, len(r.Shards), r.RouteSeed)
		if got := r.ShardOf(u); got != want {
			t.Fatalf("user %d: ring routes to %d, stream.ShardOf says %d", u, got, want)
		}
	}
}

func TestRingValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Ring)
	}{
		{"zero version", func(r *Ring) { r.Version = 0 }},
		{"no shards", func(r *Ring) { r.Shards = nil }},
		{"too many shards", func(r *Ring) {
			r.Shards = make([]string, MaxShards+1)
			for i := range r.Shards {
				r.Shards[i] = "http://h:1"
			}
		}},
		{"empty node", func(r *Ring) { r.Shards[1] = "" }},
		{"bad scheme", func(r *Ring) { r.Shards[1] = "ftp://127.0.0.1:8082" }},
		{"no host", func(r *Ring) { r.Shards[1] = "http://" }},
		{"trailing slash", func(r *Ring) { r.Shards[1] = "http://127.0.0.1:8082/" }},
		{"duplicate node", func(r *Ring) { r.Shards[1] = r.Shards[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := testRing()
			tc.mut(r)
			if err := r.Validate(); !errors.Is(err, ErrBadRing) {
				t.Fatalf("want ErrBadRing, got %v", err)
			}
			if _, err := EncodeRing(r); !errors.Is(err, ErrBadRing) {
				t.Fatalf("encode of invalid ring: want ErrBadRing, got %v", err)
			}
		})
	}
}

func TestDecodeRingRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"garbage", "not json"},
		{"unknown field", `{"version":1,"route_seed":1,"shards":["http://h:1"],"extra":true}`},
		{"trailing data", `{"version":1,"route_seed":1,"shards":["http://h:1"]} {}`},
		{"wrong type", `{"version":"one","shards":["http://h:1"]}`},
		{"oversized", "[" + strings.Repeat(" ", MaxRingBytes) + "]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeRing([]byte(tc.data)); !errors.Is(err, ErrBadRing) {
				t.Fatalf("want ErrBadRing, got %v", err)
			}
		})
	}
}

func TestRingSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ring.json")
	r := testRing()
	if err := SaveRing(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRing(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != r.Version || got.Shards[2] != r.Shards[2] {
		t.Fatalf("load changed the ring: %+v", got)
	}
	// Overwrite must be atomic: no temp litter, new content visible.
	r2 := r.Clone()
	r2.Version = 2
	r2.Shards[0] = "http://127.0.0.1:9999"
	if err := SaveRing(path, r2); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadRing(path)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Version != 2 || got2.Shards[0] != "http://127.0.0.1:9999" {
		t.Fatalf("overwrite not visible: %+v", got2)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
	if _, err := LoadRing(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("load of missing path should fail")
	}
}

func TestRingCloneIsDeep(t *testing.T) {
	r := testRing()
	c := r.Clone()
	c.Shards[0] = "http://mutated:1"
	c.Version = 99
	if r.Shards[0] == c.Shards[0] || r.Version == c.Version {
		t.Fatal("Clone shares state with the original")
	}
}

func testManifest() *Manifest {
	return &Manifest{
		RingVersion: 3,
		RouteSeed:   7,
		Shards: []ManifestShard{
			{Shard: 0, Node: "http://127.0.0.1:8081", Position: 100},
			{Shard: 1, Node: "http://127.0.0.1:8082", Position: 220},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	data, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.RingVersion != m.RingVersion || got.RouteSeed != m.RouteSeed || len(got.Shards) != 2 {
		t.Fatalf("round trip changed the manifest: %+v", got)
	}
	if got.Shards[1] != m.Shards[1] {
		t.Fatalf("shard row changed: %+v vs %+v", got.Shards[1], m.Shards[1])
	}
}

func TestManifestValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"zero ring version", func(m *Manifest) { m.RingVersion = 0 }},
		{"no shards", func(m *Manifest) { m.Shards = nil }},
		{"sparse shard index", func(m *Manifest) { m.Shards[1].Shard = 5 }},
		{"empty node", func(m *Manifest) { m.Shards[0].Node = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := testManifest()
			tc.mut(m)
			if err := m.Validate(); !errors.Is(err, ErrBadManifest) {
				t.Fatalf("want ErrBadManifest, got %v", err)
			}
		})
	}
}

func TestManifestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := testManifest()
	if err := SaveManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := loadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards[0].Position != 100 {
		t.Fatalf("load changed the manifest: %+v", got)
	}
}

// loadManifest reads and decodes the manifest at path.
func loadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeManifest(data)
}
