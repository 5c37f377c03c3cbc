package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/refsim"
	"vliwmt/internal/sim"
	"vliwmt/internal/telemetry"
)

// TestLoneBurstEdges compares sim.Run with refsim.Run on the configs
// that end a lone-candidate burst in each of its ways: a timeslice
// boundary, a MaxCycles timeout, the instruction budget and an I-cache
// miss, plus perfect memory, one context and BMT. So the comparison
// cannot pass with the burst loop never entered, every stateless case
// must move sim_issue_burst_cycles_total, and BMT, whose selector is
// stateful and must see every cycle, must leave it at zero.
func TestLoneBurstEdges(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)
	stall := cache.Config{Size: 2 << 10, LineSize: 64, Ways: 2, MissPenalty: 200}
	type burstCase struct {
		name   string
		edit   func(*sim.Config)
		ntasks int
		// check reports whether the run reached the edge it is named for.
		check func(*sim.Result) bool
	}
	cases := []burstCase{
		{"timeslice", func(c *sim.Config) {
			c.Contexts, c.Scheme = 2, "1S"
			c.TimesliceCycles = 97
			c.DCache = stall
		}, 6, func(r *sim.Result) bool { return r.Cycles > 20*97 }},
		{"instr-limit", func(c *sim.Config) {
			c.Contexts = 1
			c.InstrLimit = 1_237
			c.PerfectMemory = true
		}, 1, func(r *sim.Result) bool { return !r.TimedOut && r.Threads[0].Instrs == 1_237 }},
		{"icache-miss", func(c *sim.Config) {
			c.Scheme = "2SC3"
			c.ICache = cache.Config{Size: 1 << 10, LineSize: 64, Ways: 1, MissPenalty: 30}
			c.DCache = stall
		}, 4, func(r *sim.Result) bool { return r.ICache.Misses > 100 }},
		{"perfect-memory", func(c *sim.Config) {
			c.Scheme = "3SSS"
			c.PerfectMemory = true
		}, 2, func(r *sim.Result) bool { return r.MergeHist[1] > 0 }},
		{"one-context", func(c *sim.Config) {
			c.Contexts = 1
			c.TimesliceCycles = 500
			c.DCache = stall
		}, 3, func(r *sim.Result) bool { return r.MergeHist[0] > 0 && r.MergeHist[1] > 0 }},
		{"bmt", func(c *sim.Config) {
			c.Scheme = "BMT"
			c.TimesliceCycles = 300
			c.DCache = stall
		}, 6, func(r *sim.Result) bool { return r.MergeHist[1] > 0 }},
	}
	// One context under perfect memory stalls only for a taken branch's
	// two-cycle squash, so of three consecutive MaxCycles values at
	// least one falls inside a burst, which must stop there.
	for mc := int64(4_321); mc < 4_324; mc++ {
		cases = append(cases, burstCase{fmt.Sprintf("max-cycles-%d", mc), func(c *sim.Config) {
			c.Contexts = 1
			c.InstrLimit = 1 << 40
			c.MaxCycles = mc
			c.PerfectMemory = true
		}, 1, func(r *sim.Result) bool { return r.TimedOut && r.Cycles == mc }})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			cfg.InstrLimit = 3_000
			tc.edit(&cfg)
			ts := tasks[:tc.ntasks]

			before := telemetry.Default().Snapshot().Counter("sim_issue_burst_cycles_total")
			got, err := sim.Run(cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			burst := telemetry.Default().Snapshot().Counter("sim_issue_burst_cycles_total") - before
			want, err := refsim.Run(cfg, ts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("result divergence:\n sim:    %+v\n refsim: %+v", got, want)
			}
			if !tc.check(got) {
				t.Errorf("run does not reach the edge it is named for: %+v", got)
			}
			switch {
			case tc.name == "bmt" && burst != 0:
				t.Errorf("BMT issued %d burst cycles; a stateful selector must see every cycle", burst)
			case tc.name != "bmt" && burst <= 0:
				t.Errorf("sim_issue_burst_cycles_total moved by %d: the burst loop never ran", burst)
			case burst > got.MergeHist[1]:
				t.Errorf("%d burst cycles exceed the %d lone-issue cycles", burst, got.MergeHist[1])
			}
		})
	}
}
