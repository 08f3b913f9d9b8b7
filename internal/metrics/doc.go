// Package metrics implements the measurement vocabulary of the module,
// in two halves.
//
// The accuracy half is the paper's §V error metrics — AAPE (average
// absolute percentage error) for the common-item estimate ŝ and ARMSE
// (average root mean square error) for the Jaccard estimate Ĵ — plus
// MeanBias for the ablations, and the Series/Collector time-series types
// the over-time figures are built from.
//
// The operations half serves running deployments: ShardStat is the
// per-shard health snapshot reported by the sharded ingestion engine
// (internal/engine) — accepted/applied counters, queue backlog, per-shard
// array load β — and RateMeter turns monotone counters into windowed
// edges-per-second rates for throughput harnesses and dashboards.
package metrics
