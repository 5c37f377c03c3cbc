package sim

import "vliwmt/internal/telemetry"

// Simulator instruments. Per the DESIGN.md hot-path rules these are
// updated once per lane in finalize — never per cycle — from plain
// int64 fields the loop already maintains (or from the Result itself),
// so instrumentation adds a handful of atomic adds per run and the
// zero-allocs/cycle invariant holds untouched
// (TestSteadyStateZeroAllocs runs against this instrumented path).
// Every simulation is a RunBatch lane, so sim_runs_total and
// sim_batch_jobs_total move together.
var (
	metRuns = telemetry.NewCounter("sim_runs_total",
		"Simulated jobs completed: one per batch lane, sim.Run counting as one lane.")
	metCycles = telemetry.NewCounter("sim_cycles_total",
		"Processor cycles simulated, fast-forwarded spans included.")
	metInstrs = telemetry.NewCounter("sim_instrs_total",
		"VLIW instructions retired.")
	metOps = telemetry.NewCounter("sim_ops_total",
		"Operations retired.")
	metFFSpans = telemetry.NewCounter("sim_fastforward_spans_total",
		"All-stalled spans the stall fast-forward jumped over.")
	metFFCycles = telemetry.NewCounter("sim_fastforward_cycles_total",
		"Cycles skipped (bulk-accounted) by the stall fast-forward.")
	metBurstCycles = telemetry.NewCounter("sim_issue_burst_cycles_total",
		"Lone-candidate cycles issued inside issue bursts, each burst's opening cycle included.")
	metMerges = telemetry.NewCounter("sim_merges_total",
		"Thread merges performed: sum over cycles of (threads issued together - 1).")

	// Batched-core instruments, flushed once per RunBatch call —
	// including the one-lane calls sim.Run makes.
	metBatchRuns = telemetry.NewCounter("sim_batch_runs_total",
		"sim.RunBatch calls completed, sim.Run's one-lane calls included.")
	metBatchJobs = telemetry.NewCounter("sim_batch_jobs_total",
		"Lanes simulated across all sim.RunBatch calls, sim.Run's one-lane calls included.")
	metBatchFFSpans = telemetry.NewCounter("sim_batch_fastforward_spans_total",
		"Batch-wide fast-forward jumps (every live lane sleeping past an epoch boundary).")
	metBatchFFCycles = telemetry.NewCounter("sim_batch_fastforward_cycles_total",
		"Cycles the batch driver skipped in batch-wide fast-forward jumps.")
	metBatchLaneOcc = telemetry.NewHistogram("sim_batch_lane_occupancy",
		"Live lanes per batch cycle, cycle-weighted (one observation per simulated cycle).",
		[]float64{1, 2, 4, 8, 16, 32, 64})
)

// recordRunMetrics flushes one finished run into the process-wide
// instruments. merges is derived from the merge histogram: a cycle in
// which k threads issued together performed k-1 merges.
func recordRunMetrics(res *Result, ffSpans, ffCycles, burstCycles int64) {
	metRuns.Inc()
	metCycles.Add(res.Cycles)
	metInstrs.Add(res.Instrs)
	metOps.Add(res.Ops)
	metFFSpans.Add(ffSpans)
	metFFCycles.Add(ffCycles)
	metBurstCycles.Add(burstCycles)
	var merges int64
	for k, n := range res.MergeHist {
		if k >= 2 {
			merges += int64(k-1) * n
		}
	}
	metMerges.Add(merges)
}

// recordBatchMetrics flushes one finished batch into the process-wide
// instruments: the per-cycle lane-occupancy distribution (bulk
// observations, one per simulated cycle) and the batch-wide
// fast-forward counters. Like recordRunMetrics it runs once per batch
// from plain fields the loop already maintained, so the
// zero-allocs/cycle invariant is untouched.
func recordBatchMetrics(b *batchCore) {
	metBatchRuns.Inc()
	metBatchJobs.Add(int64(len(b.lanes)))
	metBatchFFSpans.Add(b.bFFSpans)
	metBatchFFCycles.Add(b.bFFCycles)
	for k, cycles := range b.occCycles {
		metBatchLaneOcc.ObserveN(float64(k), cycles)
	}
}
