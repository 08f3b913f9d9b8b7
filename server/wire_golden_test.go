package server_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/vossketch/vos"
	"github.com/vossketch/vos/internal/metrics"
	"github.com/vossketch/vos/server"
)

// goldenService answers every query with fixed values, so the bytes the
// server writes for them depend on the encoding alone.
type goldenService struct {
	stats vos.Stats
	top   []vos.TopKResult
}

var goldenEstimate = vos.Estimate{
	Common:              12.5,
	CommonClamped:       12,
	Jaccard:             1.0 / 3,
	SymmetricDifference: 48.25,
	Alpha:               1e-7,
	Beta:                0.015625,
	CardinalityU:        40,
	CardinalityV:        32,
}

func (goldenService) Ingest(context.Context, []vos.Edge) error { return nil }
func (goldenService) Similarity(context.Context, vos.User, vos.User) (vos.Estimate, error) {
	return goldenEstimate, nil
}
func (g goldenService) TopK(context.Context, vos.User, []vos.User, int) ([]vos.TopKResult, error) {
	return g.top, nil
}
func (goldenService) Cardinality(context.Context, vos.User) (int64, error) { return 40, nil }
func (g goldenService) Stats(context.Context) (vos.Stats, error)           { return g.stats, nil }

// goldenReporter adds the optional observability sections of /v1/stats.
type goldenReporter struct{ goldenService }

func (goldenReporter) SnapshotStats() vos.SnapshotStats {
	return vos.SnapshotStats{
		Replays: 1, ReplayedEdges: 2, RebuildsFirst: 3, RebuildsOverflow: 4, RebuildsRotation: 5,
		RebuildsImport: 6, RebuildsBusy: 7, RebuildsEpoch: 8, RebuildsRing: 9, RebuildsNoDelta: 10,
		JournalOverflows: 11, GatheredBytes: 12,
	}
}

// goldenGateway reports a gateway's snapshot counters, whose local replays an
// engine's never have.
type goldenGateway struct{ goldenService }

func (goldenGateway) SnapshotStats() vos.SnapshotStats {
	return vos.SnapshotStats{Replays: 5, ReplayedEdges: 1280, RebuildsFirst: 2, GatheredBytes: 700, LocalReplays: 4}
}

func (goldenGateway) ANNStats() (vos.ANNStats, bool) { return vos.ANNStats{}, false }

func (goldenReporter) ANNStats() (vos.ANNStats, bool) {
	return vos.ANNStats{
		Indexed: 1, DirtyBacklog: 2, Entries: 3, Rebands: 4, Removals: 5, Probes: 6,
		Rotations: 7, BandRekeys: 8, JournalFallbacks: 9, SpilledUsers: 10, ProbeReuses: 11,
	}, true
}

func goldenUDPStats() metrics.UDPStats {
	return metrics.UDPStats{
		FramesReceived: 1, FramesApplied: 2, EdgesApplied: 3, Malformed: 4, GapsDetected: 5,
		ReplaysDropped: 6, LateApplied: 7, StaleDropped: 8, AdmitRejected: 9, SinkErrors: 10,
		AcksSent: 11, Sessions: 12, SessionsEvicted: 13,
	}
}

// TestWireGolden pins the exact bytes of the /v1/ answers that carry the
// sketch's own types, against literals: a change to a type, a tag or a
// handler that moves one byte of a response body fails here.
func TestWireGolden(t *testing.T) {
	plainStats := vos.Stats{
		MemoryBits: 1 << 18, SketchBits: 512, OnesCount: 4096, Beta: 0.015625, Users: 80, MemoryBytes: 34048,
	}
	windowedFast := plainStats
	windowedFast.WindowSeconds, windowedFast.WindowBuckets, windowedFast.Family = 2.5, 5, vos.FamilyFast
	saturated := goldenEstimate
	saturated.Saturated = true
	ranking := []vos.TopKResult{{User: 7, Estimate: goldenEstimate}, {User: 1 << 63, Estimate: saturated}}

	const estimateJSON = `{"common":12.5,"common_clamped":12,"jaccard":0.3333333333333333,"symmetric_difference":48.25,"alpha":1e-7,"beta":0.015625,"cardinality_u":40,"cardinality_v":32}`
	const topKBody = `{"user":1,"candidates":[2,3],"n":2}`
	for _, tc := range []struct {
		name         string
		svc          vos.SimilarityService
		opt          server.Options
		method, path string
		body         string
		want         string
	}{
		{name: "similarity", svc: goldenService{}, method: "GET", path: "/v1/similarity?u=1&v=2",
			want: estimateJSON + "\n"},
		{name: "topk", svc: goldenService{top: ranking}, method: "POST", path: "/v1/topk", body: topKBody,
			want: `[{"user":7,"estimate":` + estimateJSON + `},{"user":9223372036854775808,"estimate":` +
				strings.TrimSuffix(estimateJSON, "}") + `,"saturated":true}}]` + "\n"},
		{name: "topk empty", svc: goldenService{}, method: "POST", path: "/v1/topk", body: topKBody,
			want: "[]\n"},
		{name: "cardinality", svc: goldenService{}, method: "GET", path: "/v1/cardinality?user=18446744073709551615",
			want: `{"user":18446744073709551615,"cardinality":40}` + "\n"},
		{name: "stats plain", svc: goldenService{stats: plainStats}, method: "GET", path: "/v1/stats",
			want: `{"memory_bits":262144,"sketch_bits":512,"ones_count":4096,"beta":0.015625,"users":80,"memory_bytes":34048,"hash_family":"classic"}` + "\n"},
		{name: "stats windowed fast", svc: goldenService{stats: windowedFast}, method: "GET", path: "/v1/stats",
			want: `{"memory_bits":262144,"sketch_bits":512,"ones_count":4096,"beta":0.015625,"users":80,"memory_bytes":34048,"window_seconds":2.5,"window_buckets":5,"hash_family":"fast"}` + "\n"},
		{name: "stats with sections", svc: goldenReporter{goldenService{stats: plainStats}},
			opt: server.Options{UDPStats: goldenUDPStats}, method: "GET", path: "/v1/stats",
			want: `{"memory_bits":262144,"sketch_bits":512,"ones_count":4096,"beta":0.015625,"users":80,"memory_bytes":34048,"hash_family":"classic",` +
				`"udp":{"frames_received":1,"frames_applied":2,"edges_applied":3,"malformed":4,"gaps_detected":5,"replays_dropped":6,"late_applied":7,"stale_dropped":8,"admit_rejected":9,"sink_errors":10,"acks_sent":11,"sessions":12,"sessions_evicted":13},` +
				`"snapshot":{"replays":1,"replayed_edges":2,"rebuilds_first":3,"rebuilds_overflow":4,"rebuilds_rotation":5,"rebuilds_import":6,"rebuilds_busy":7,"rebuilds_epoch":8,"rebuilds_ring":9,"rebuilds_no_delta":10,"journal_overflows":11,"gathered_bytes":12},` +
				`"ann":{"indexed":1,"dirty_backlog":2,"entries":3,"rebands":4,"removals":5,"probes":6,"rotations":7,"band_rekeys":8,"journal_fallbacks":9,"spilled_users":10,"probe_reuses":11}}` + "\n"},
		{name: "stats of a gateway", svc: goldenGateway{goldenService{stats: plainStats}}, method: "GET", path: "/v1/stats",
			want: `{"memory_bits":262144,"sketch_bits":512,"ones_count":4096,"beta":0.015625,"users":80,"memory_bytes":34048,"hash_family":"classic",` +
				`"snapshot":{"replays":5,"replayed_edges":1280,"rebuilds_first":2,"rebuilds_overflow":0,"rebuilds_rotation":0,"rebuilds_import":0,"rebuilds_busy":0,"rebuilds_epoch":0,"rebuilds_ring":0,"rebuilds_no_delta":0,"journal_overflows":0,"gathered_bytes":700,"local_replays":4}}` + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			server.New(tc.svc, tc.opt).ServeHTTP(rec, req)
			got, _ := io.ReadAll(rec.Result().Body)
			if rec.Code != http.StatusOK || string(got) != tc.want {
				t.Fatalf("%s %s answered %d\n got %s\nwant %s", tc.method, tc.path, rec.Code, got, tc.want)
			}
		})
	}
}
