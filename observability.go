package vliwmt

import (
	"time"

	"vliwmt/internal/sweep"
	"vliwmt/internal/telemetry"
)

// MetricsSnapshot is a point-in-time copy of the process-wide
// telemetry registry: every counter, gauge and histogram the library
// maintains (sweep_jobs_*, store_*, sim_*, server_* families; the full
// table is in the README's Observability section). Counters are
// process-lifetime values — embedders and tests assert on deltas
// between two snapshots, not on absolute numbers.
type MetricsSnapshot = telemetry.Snapshot

// MetricsHistogram is one histogram inside a MetricsSnapshot.
type MetricsHistogram = telemetry.HistogramSnapshot

// Metrics snapshots the process-wide telemetry registry. The same
// values are served by vliwserve's GET /metrics in Prometheus text
// format; this is the in-process spelling for embedders and tests:
//
//	before := vliwmt.Metrics()
//	results, _ := runner.Sweep(ctx, grid)
//	after := vliwmt.Metrics()
//	hits := after.Counter("store_hits_total") - before.Counter("store_hits_total")
func Metrics() MetricsSnapshot { return telemetry.Default().Snapshot() }

// SweepSummary is the lifecycle roll-up of one finished sweep: job,
// error and store-hit counts, per-job latency percentiles (p50/p99)
// and throughput. Its String method renders the one-line form
// `vliwsweep -stats` prints. It is the one sweep roll-up: neither the
// server nor the wire carries one of its own.
type SweepSummary = sweep.Summary

// SummarizeSweep rolls a result slice up into a SweepSummary. wall is
// the sweep's end-to-end wall-clock time (0 leaves throughput unset).
// It works identically on in-process results and results fetched from
// a remote server — cached jobs carry the replayed original elapsed
// times either way.
func SummarizeSweep(results []SweepResult, wall time.Duration) SweepSummary {
	return sweep.Summarize(results, wall)
}
