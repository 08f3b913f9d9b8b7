package cluster

import (
	"errors"
	"fmt"
)

// ErrBadManifest is wrapped by every DecodeManifest failure, the manifest
// analogue of ErrBadRing.
var ErrBadManifest = errors.New("cluster: bad manifest")

// Manifest records one cluster-wide checkpoint: which ring version it was
// taken under and, per cluster shard, which node held the shard and the
// WAL position its durable checkpoint acknowledged. It is what an
// operator (or a future restore path) needs to answer "what did the
// cluster durably know, and where" — the cluster analogue of the
// single-node CheckpointResponse.
type Manifest struct {
	// RingVersion is the membership version the checkpoint was taken
	// under; must be ≥ 1.
	RingVersion uint64 `json:"ring_version"`
	// RouteSeed is the ring's routing seed, recorded so a manifest is
	// interpretable without the ring document beside it.
	RouteSeed uint64 `json:"route_seed"`
	// Shards has one row per cluster shard, indexed 0..len-1.
	Shards []ManifestShard `json:"shards"`
}

// ManifestShard is one shard's row in a cluster checkpoint.
type ManifestShard struct {
	// Shard is the cluster shard index.
	Shard int `json:"shard"`
	// Node is the backend base URL that held the shard at checkpoint
	// time.
	Node string `json:"node"`
	// Position is the backend's durable WAL position acknowledged by its
	// /v1/checkpoint.
	Position uint64 `json:"position"`
}

// Validate checks the structural invariants a usable manifest must hold.
func (m *Manifest) Validate() error {
	if m.RingVersion < 1 {
		return fmt.Errorf("%w: ring_version must be ≥ 1, got %d", ErrBadManifest, m.RingVersion)
	}
	if len(m.Shards) < 1 || len(m.Shards) > MaxShards {
		return fmt.Errorf("%w: shard count %d outside [1, %d]", ErrBadManifest, len(m.Shards), MaxShards)
	}
	for i, s := range m.Shards {
		if s.Shard != i {
			return fmt.Errorf("%w: row %d has shard index %d (rows must be dense and ordered)", ErrBadManifest, i, s.Shard)
		}
		if s.Node == "" {
			return fmt.Errorf("%w: shard %d has an empty node", ErrBadManifest, i)
		}
	}
	return nil
}

// EncodeManifest serializes a validated manifest as indented JSON.
func EncodeManifest(m *Manifest) ([]byte, error) { return encodeDocument(m) }

// DecodeManifest parses and validates a manifest document under the same
// guards as DecodeRing; every failure wraps ErrBadManifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	return decodeDocument(data, new(Manifest), ErrBadManifest)
}

// SaveManifest writes the manifest to path atomically.
func SaveManifest(path string, m *Manifest) error { return saveDocument(path, m) }
