// Package cluster implements the vosgw gateway tier: a routing layer that
// lifts the engine's stream.ShardOf(user) partition from cores to the
// network. A Ring maps each cluster shard to the vosd backend that owns
// it; the Gateway fans ingest to owners, answers queries from the
// XOR-merge of every backend's serialized sketch, moves shards between
// nodes with checkpoint-ship + merge handoff, and coordinates
// cluster-wide checkpoints.
//
// The correctness bar is wire parity: because VOS state is pure parity,
// the merged cluster sketch equals the sketch of the whole stream for any
// partition of it, so a K-node cluster answers bit-identical to a single
// engine over the same stream. The query-side consequence is that pair
// estimates CANNOT be computed node-locally — the estimator's β term (the
// shared array's global ones-fraction) and the cross-user collision noise
// at recovered positions are properties of the merged array, not of any
// one backend's — so the gateway's scatter-gather happens at the sketch
// level: it gathers each backend's serialized state and queries the
// merge, the network analogue of the engine's own shard-merge snapshot.
//
// The Gateway is a vos.SimilarityService, served by package server like
// any other: server.New serves the standard API over it, and
// Gateway.Register adds the three gateway-only routes through the same
// Server.Handle. Its errors speak HTTP through server.StatusFor alone — a
// failed backend call is a backendError, which keeps the backend's own
// status and code and makes the unclassifiable a 502, and ErrBadRing
// carries its 400.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"

	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/internal/wal"
	"github.com/vossketch/vos/server"
)

// Format limits for the ring and manifest JSON decoders. Inputs past them
// are rejected before any allocation scales with attacker-controlled
// content — the same bar core.UnmarshalVOS sets for sketch bytes.
const (
	// MaxRingBytes caps the encoded size of a ring or manifest document.
	MaxRingBytes = 1 << 20
	// MaxShards caps the cluster shard count a ring may declare.
	MaxShards = 4096
)

// ErrBadRing is wrapped by every DecodeRing failure: corrupt JSON,
// out-of-range shard counts, duplicate or unparseable node URLs. Callers
// gate fallback handling on errors.Is(err, ErrBadRing). Over HTTP a ring
// violation is the caller's fault, so the sentinel carries its own status
// for server.StatusFor.
var ErrBadRing error = badRing{}

type badRing struct{}

func (badRing) Error() string { return "cluster: bad ring" }

func (badRing) HTTPStatus() (status int, code string) {
	return http.StatusBadRequest, server.CodeBadRequest
}

// Ring is the versioned shard→node table — the cluster's membership
// document, static-config-first: operators write it as JSON, the gateway
// loads it at startup and rewrites it atomically on every handoff.
//
// Shards[i] is the base URL of the vosd backend owning cluster shard i.
// The shard count is part of the cluster's identity (like the sketch
// config): changing it would re-partition users, so a ring's length is
// fixed for its life. URLs must be distinct — a backend's exported state
// is its whole engine, so one process holding two cluster shards could
// not hand them off independently (see Gateway.Handoff).
type Ring struct {
	// Version increments on every membership change and stamps cluster
	// checkpoints; a decoded ring must have Version ≥ 1.
	Version uint64 `json:"version"`
	// RouteSeed seeds the user→shard hash, exactly like
	// EngineConfig.RouteSeed seeds the engine's internal partition.
	RouteSeed uint64 `json:"route_seed"`
	// Shards maps cluster shard index → owning backend base URL.
	Shards []string `json:"shards"`
}

// NumShards returns the cluster shard count.
func (r *Ring) NumShards() int { return len(r.Shards) }

// ShardOf returns the cluster shard owning user u. It is the same routing
// function the engine uses internally (stream.ShardOf), lifted to the
// cluster's shard count and seed.
func (r *Ring) ShardOf(u stream.User) int {
	return stream.ShardOf(u, len(r.Shards), r.RouteSeed)
}

// Clone returns a deep copy, so membership changes can be prepared
// without mutating the published ring.
func (r *Ring) Clone() *Ring {
	return &Ring{Version: r.Version, RouteSeed: r.RouteSeed, Shards: append([]string(nil), r.Shards...)}
}

// Validate checks the structural invariants a usable ring must hold.
func (r *Ring) Validate() error {
	if r.Version < 1 {
		return fmt.Errorf("%w: version must be ≥ 1, got %d", ErrBadRing, r.Version)
	}
	if len(r.Shards) < 1 || len(r.Shards) > MaxShards {
		return fmt.Errorf("%w: shard count %d outside [1, %d]", ErrBadRing, len(r.Shards), MaxShards)
	}
	seen := make(map[string]int, len(r.Shards))
	for i, node := range r.Shards {
		if err := validateNodeURL(node); err != nil {
			return fmt.Errorf("%w: shard %d: %v", ErrBadRing, i, err)
		}
		if j, dup := seen[node]; dup {
			return fmt.Errorf("%w: shards %d and %d share node %s (one backend per shard: exported state is the whole engine)", ErrBadRing, j, i, node)
		}
		seen[node] = i
	}
	return nil
}

// validateNodeURL checks one backend base URL: absolute, http or https,
// non-empty host, no trailing slash ambiguity.
func validateNodeURL(node string) error {
	if node == "" {
		return errors.New("empty node URL")
	}
	if strings.HasSuffix(node, "/") {
		return fmt.Errorf("node URL %q must not end in a slash", node)
	}
	u, err := url.Parse(node)
	if err != nil {
		return fmt.Errorf("node URL %q: %v", node, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("node URL %q must be absolute http(s)://host[:port]", node)
	}
	return nil
}

// document is what the ring and the manifest share: a JSON document of at
// most MaxRingBytes whose invariants Validate checks. One codec serves both,
// so neither a corrupt file nor a buggy caller can put an invalid one on
// disk or on the wire, under either name.
type document interface{ Validate() error }

// encodeDocument serializes a validated document as indented JSON.
func encodeDocument(d document) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// decodeDocument parses and validates data into d (a pointer to the zero
// document). Every failure wraps bad; the decoder never allocates
// proportionally to anything a corrupt input declares (the byte cap bounds
// the document, Validate's shard cap bounds the table), and unknown fields
// and trailing data are refused.
func decodeDocument[D document](data []byte, d D, bad error) (D, error) {
	var none D
	if len(data) > MaxRingBytes {
		return none, fmt.Errorf("%w: document is %d bytes, cap %d", bad, len(data), MaxRingBytes)
	}
	if err := server.DecodeStrictJSON(bytes.NewReader(data), d); err != nil {
		return none, fmt.Errorf("%w: %v", bad, err)
	}
	if err := d.Validate(); err != nil {
		return none, err
	}
	return d, nil
}

// saveDocument writes the document to path atomically and durably
// (wal.WriteFileAtomic): a crash mid-write leaves either the old document
// or the new one, never a torn half — membership must survive the same
// failures the WAL does.
func saveDocument(path string, d document) error {
	data, err := encodeDocument(d)
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(path, data)
}

// EncodeRing serializes a validated ring as indented JSON (the on-disk
// and /v1/cluster/ring format).
func EncodeRing(r *Ring) ([]byte, error) { return encodeDocument(r) }

// DecodeRing parses and validates a ring document; every failure wraps
// ErrBadRing.
func DecodeRing(data []byte) (*Ring, error) { return decodeDocument(data, new(Ring), ErrBadRing) }

// LoadRing reads and decodes the ring at path.
func LoadRing(path string) (*Ring, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := DecodeRing(data)
	if err != nil {
		return nil, fmt.Errorf("ring %s: %w", path, err)
	}
	return r, nil
}

// SaveRing writes the ring to path atomically.
func SaveRing(path string, r *Ring) error { return saveDocument(path, r) }
