package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/stream"
	"github.com/vossketch/vos/server"
)

// ExportSketch implements vos.StateExporter over GET /v1/cluster/sketch:
// the remote service's complete serialized state (core wire format, as
// vos.Unmarshal reads) — ExportSince's answer to an empty cursor. It is a
// read, so it retries per Options.MaxRetries.
func (c *Client) ExportSketch(ctx context.Context) ([]byte, error) {
	d, _, err := c.ExportSince(ctx, "")
	return d.Full, err
}

// ExportSince is ExportSketch for a caller that keeps its own merged view of
// the remote state (the cluster gateway): GET /v1/cluster/sketch?since=,
// the wire form of vos.StateSync.ExportSince. The answer is the edges applied
// since the cursor, or the full state — when since is empty, when the remote
// cannot serve the cursor (Fallback says why), or, with an empty Cursor, when
// the remote does not offer the delta export at all and will answer in full
// every time. n is the size of the response body. The remote changes
// nothing to answer, so like every read this retries per Options.MaxRetries.
func (c *Client) ExportSince(ctx context.Context, since string) (d vos.SketchDelta, n int, err error) {
	path := server.RouteClusterSketch
	if since != "" {
		path += "?since=" + url.QueryEscape(since)
	}
	err = c.retry(ctx, func() error {
		body, hdr, err := c.call(ctx, http.MethodGet, path, "", nil)
		if err != nil {
			return err
		}
		n = len(body)
		d, err = decodeSketchDelta(body, hdr.Get(server.HeaderSketchCursor), hdr.Get(server.HeaderSketchFallback))
		return err
	})
	return d, n, err
}

// decodeSketchDelta reads a GET /v1/cluster/sketch response. The body is a
// serialized sketch or, in answer to a cursor, binary stream edges; its
// magic says which. A sketch is passed on undecoded, as ExportSketch does.
func decodeSketchDelta(body []byte, cursor, fallback string) (vos.SketchDelta, error) {
	d := vos.SketchDelta{Cursor: cursor, Fallback: fallback}
	if !stream.IsBinary(body) {
		d.Full = body
		return d, nil
	}
	if cursor == "" {
		return vos.SketchDelta{}, fmt.Errorf("client: %s sent a delta without the %s header", server.RouteClusterSketch, server.HeaderSketchCursor)
	}
	edges, err := stream.DecodeBinary(body)
	if err != nil {
		return vos.SketchDelta{}, fmt.Errorf("client: decode %s delta: %w", server.RouteClusterSketch, err)
	}
	d.Edges = edges
	return d, nil
}

// ImportSketch is vos.StateSync.ImportSketch over POST /v1/cluster/import.
// Like every write it is NEVER retried: sketch state is parity, so a
// duplicate import XOR-cancels the first — an ambiguous outcome must be
// resolved by the handoff coordinator (fresh target), not by resending.
func (c *Client) ImportSketch(ctx context.Context, data []byte) error {
	return c.do(ctx, http.MethodPost, server.RouteClusterImport, server.ContentTypeBinary, data, nil)
}

// Compile-time check: the HTTP client serves as a full-export source.
var _ vos.StateExporter = (*Client)(nil)

// ClusterClient speaks to a vosgw gateway. The embedded Client provides
// the whole vos.SimilarityService surface (the gateway serves the same
// /v1/ API a single vosd does — that symmetry is the point); the
// additional methods cover the gateway-only routes: the ring, shard
// handoff, cluster checkpoints, and degraded (partial) top-K.
type ClusterClient struct {
	*Client
}

// NewCluster builds a ClusterClient over a vosgw base URL.
func NewCluster(gatewayURL string, opt Options) *ClusterClient {
	return &ClusterClient{Client: New(gatewayURL, opt)}
}

// TopKPartial is TopK tolerating unreachable backends: the gateway
// answers from the reachable portion of the cluster and flags the
// degradation with the X-Vos-Partial response header, which this method
// surfaces as complete=false. A retryable failure (transport, 5xx) is
// retried per Options.MaxRetries before the degraded answer is accepted.
func (c *ClusterClient) TopKPartial(ctx context.Context, u vos.User, candidates []vos.User, n int) ([]vos.TopKResult, bool, error) {
	return c.postTopK(ctx, server.TopKRequest{User: u, Candidates: candidates, N: n})
}

// Ring fetches the gateway's live shard→node table.
func (c *ClusterClient) Ring(ctx context.Context) (server.RingResponse, error) {
	var resp server.RingResponse
	err := c.getRetry(ctx, server.RouteClusterRing, &resp)
	return resp, err
}

// Handoff moves cluster shard shard onto the fresh backend at to,
// returning the ring version after the move. Not retried: a handoff that
// failed ambiguously (the import may have landed) must be redone against
// a fresh target, never replayed (see Client.ImportSketch).
func (c *ClusterClient) Handoff(ctx context.Context, shard int, to string) (uint64, error) {
	body, err := json.Marshal(server.HandoffRequest{Shard: shard, To: to})
	if err != nil {
		return 0, err
	}
	var resp server.HandoffResponse
	err = c.do(ctx, http.MethodPost, server.RouteClusterHandoff, server.ContentTypeJSON, body, &resp)
	return resp.Version, err
}

// CheckpointCluster quiesces the whole cluster's ingest and checkpoints
// every backend, returning the manifest rows. Not retried (a checkpoint
// is safe to re-run but not free).
func (c *ClusterClient) CheckpointCluster(ctx context.Context) (server.ClusterCheckpointResponse, error) {
	var resp server.ClusterCheckpointResponse
	err := c.do(ctx, http.MethodPost, server.RouteClusterCheckpoint, "", nil, &resp)
	return resp, err
}
