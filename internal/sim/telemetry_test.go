package sim_test

import (
	"testing"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/sim"
	"vliwmt/internal/telemetry"
)

// TestRunTelemetry checks the per-run instrument flush: one
// stall-heavy run must move the run/cycle/instr/op counters by
// exactly the Result's totals, count itself as one one-lane batch,
// record the fast-forwarded spans, and count merges consistently with
// the merge histogram. The
// zero-allocs/cycle guarantee of this same instrumented path is
// enforced separately by TestSteadyStateZeroAllocs.
func TestRunTelemetry(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)[:4]
	cfg := sim.DefaultConfig()
	cfg.Scheme = "2SC3"
	cfg.InstrLimit = 2_000
	// A tiny cache with a large miss penalty forces all-stalled spans,
	// so the fast-forward instruments have something to record.
	cfg.DCache = cache.Config{Size: 2 << 10, LineSize: 64, Ways: 2, MissPenalty: 200}

	before := telemetry.Default().Snapshot()
	res, err := sim.Run(cfg, tasks)
	if err != nil {
		t.Fatal(err)
	}
	after := telemetry.Default().Snapshot()
	delta := func(name string) int64 { return after.Counter(name) - before.Counter(name) }

	for _, name := range []string{"sim_runs_total", "sim_batch_runs_total", "sim_batch_jobs_total"} {
		if d := delta(name); d != 1 {
			t.Errorf("%s moved by %d, want 1: sim.Run is one one-lane RunBatch", name, d)
		}
	}
	if d := delta("sim_cycles_total"); d != res.Cycles {
		t.Errorf("sim_cycles_total moved by %d, want the run's %d cycles", d, res.Cycles)
	}
	if d := delta("sim_instrs_total"); d != res.Instrs {
		t.Errorf("sim_instrs_total moved by %d, want %d", d, res.Instrs)
	}
	if d := delta("sim_ops_total"); d != res.Ops {
		t.Errorf("sim_ops_total moved by %d, want %d", d, res.Ops)
	}
	if d := delta("sim_fastforward_spans_total"); d <= 0 {
		t.Errorf("sim_fastforward_spans_total moved by %d on a stall-heavy run; fast-forward instrumentation dead", d)
	}
	if d := delta("sim_fastforward_cycles_total"); d <= 0 || d > res.Cycles {
		t.Errorf("sim_fastforward_cycles_total moved by %d, want in (0, %d]", d, res.Cycles)
	}
	var merges int64
	for k, n := range res.MergeHist {
		if k >= 2 {
			merges += int64(k-1) * n
		}
	}
	if d := delta("sim_merges_total"); d != merges {
		t.Errorf("sim_merges_total moved by %d, want %d per the merge histogram", d, merges)
	}
}

// TestBatchTelemetry checks the per-batch instrument flush: one
// stall-heavy heterogeneous batch must count itself once, count every
// lane as a batch job AND as a finished run (finalize flushes the
// per-run instruments lane by lane), observe the cycle-weighted
// lane-occupancy distribution, and keep the batch-wide fast-forward
// counters consistent with the work performed.
func TestBatchTelemetry(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)[:4]
	cfgs := make([]sim.Config, 5)
	for i := range cfgs {
		cfg := sim.DefaultConfig()
		cfg.Scheme = []string{"2SC3", "3SSS"}[i%2]
		cfg.InstrLimit = int64(300 + 150*i) // ragged, so occupancy decays
		cfg.Seed = uint64(i + 1)
		// A miss penalty far beyond the driver's epoch makes every lane
		// sleep across epoch boundaries between short execution bursts,
		// so some boundaries find the whole batch asleep — the batch-wide
		// fast-forward the counters must record.
		cfg.DCache = cache.Config{Size: 2 << 10, LineSize: 64, Ways: 2, MissPenalty: 10_000}
		cfgs[i] = cfg
	}

	before := telemetry.Default().Snapshot()
	ress, err := sim.RunBatch(cfgs, tasks)
	if err != nil {
		t.Fatal(err)
	}
	after := telemetry.Default().Snapshot()
	delta := func(name string) int64 { return after.Counter(name) - before.Counter(name) }

	lanes := int64(len(cfgs))
	if d := delta("sim_batch_runs_total"); d != 1 {
		t.Errorf("sim_batch_runs_total moved by %d, want 1", d)
	}
	if d := delta("sim_batch_jobs_total"); d != lanes {
		t.Errorf("sim_batch_jobs_total moved by %d, want %d", d, lanes)
	}
	if d := delta("sim_runs_total"); d != lanes {
		t.Errorf("sim_runs_total moved by %d, want one per lane (%d)", d, lanes)
	}
	var cycles int64
	for _, r := range ress {
		cycles += r.Cycles
	}
	if d := delta("sim_cycles_total"); d != cycles {
		t.Errorf("sim_cycles_total moved by %d, want the lanes' summed %d", d, cycles)
	}

	// The occupancy histogram observes once per driver cycle, weighted
	// by live lanes: its count is the longest lane's cycle span, its sum
	// the total lane-cycles — so count <= sum <= lanes*count, and the
	// sum is exactly the summed per-lane cycle counts.
	hb, ha := before.Histograms["sim_batch_lane_occupancy"], after.Histograms["sim_batch_lane_occupancy"]
	n, sum := ha.Count-hb.Count, int64(ha.Sum-hb.Sum)
	if n <= 0 {
		t.Fatalf("sim_batch_lane_occupancy observed %d cycles, want > 0", n)
	}
	if sum != cycles {
		t.Errorf("occupancy-weighted cycle sum = %d, want the lanes' summed %d cycles", sum, cycles)
	}
	if sum < n || sum > lanes*n {
		t.Errorf("occupancy sum %d outside [count=%d, lanes*count=%d]", sum, n, lanes*n)
	}

	// Stall-heavy lanes force batch-wide all-asleep spans; the skipped
	// cycles are bulk-accounted into the occupancy histogram too, so
	// they must stay below the driver's total span.
	if d := delta("sim_batch_fastforward_spans_total"); d <= 0 {
		t.Errorf("sim_batch_fastforward_spans_total moved by %d on a stall-heavy batch", d)
	}
	if d := delta("sim_batch_fastforward_cycles_total"); d <= 0 || d >= n {
		t.Errorf("sim_batch_fastforward_cycles_total moved by %d, want in (0, %d)", d, n)
	}
}
