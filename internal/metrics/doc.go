// Package metrics is the operational measurement vocabulary of running
// deployments: ShardStat is the per-shard health snapshot reported by the
// sharded ingestion engine (internal/engine) — accepted/applied counters,
// queue backlog, per-shard array load β — RateMeter turns monotone counters
// into windowed edges-per-second rates for throughput harnesses and
// dashboards, and UDPStats is the datagram listener's ledger. (The paper's
// accuracy metrics, AAPE and ARMSE, live with the experiments that print
// them, internal/experiments.)
package metrics
