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
// exactly the Result's totals, record the fast-forwarded spans and the burst-issued cycles, and
// count merges consistently with the merge histogram. The
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

	if d := delta("sim_runs_total"); d != 1 {
		t.Errorf("sim_runs_total moved by %d, want 1", d)
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
	// The miss-heavy run leaves one thread ready on most issuing cycles,
	// and every such cycle is issued by a lone-candidate burst.
	if d := delta("sim_issue_burst_cycles_total"); d <= 0 || d > res.MergeHist[1] {
		t.Errorf("sim_issue_burst_cycles_total moved by %d, want in (0, %d], the lone-issue cycles", d, res.MergeHist[1])
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

// TestResidentFetchTelemetry checks the pinned-fetch counter: under the
// default 64 KB I-cache every set of four kernels' code fits its ways,
// so every fetch is a resident one, and a run without caches has none.
func TestResidentFetchTelemetry(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)[:4]
	for _, perfect := range []bool{false, true} {
		cfg := sim.DefaultConfig()
		cfg.Scheme = "2SC3"
		cfg.InstrLimit = 2_000
		cfg.PerfectMemory = perfect
		before := telemetry.Default().Snapshot()
		res, err := sim.Run(cfg, tasks)
		if err != nil {
			t.Fatal(err)
		}
		d := telemetry.Default().Snapshot().Counter("sim_icache_resident_fetches_total") - before.Counter("sim_icache_resident_fetches_total")
		if want := res.ICache.Accesses; d != want || (!perfect && d == 0) {
			t.Errorf("PerfectMemory=%v: sim_icache_resident_fetches_total moved by %d, want %d (every I-cache fetch)", perfect, d, want)
		}
	}
}
