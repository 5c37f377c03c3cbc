package sim

import "vliwmt/internal/telemetry"

// Simulator instruments. Per the DESIGN.md hot-path rules these are
// updated once per run in finalize — never per cycle — from plain
// int64 fields the loop already maintains (or from the Result itself),
// so instrumentation adds a handful of atomic adds per run and the
// zero-allocs/cycle invariant holds untouched
// (TestSteadyStateZeroAllocs runs against this instrumented path).
var (
	metRuns = telemetry.NewCounter("sim_runs_total",
		"Simulated jobs completed: one per successful sim.Run call.")
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
