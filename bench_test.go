// Micro-benchmarks of single layers: the cycle loop (Simulator,
// StallHeavy and its naive refsim twin), merge selection (MergeSelect on
// a cascade, MergeSelectBalanced on a balanced tree, and the reference
// tree walk), the cache model, the compiler, gate-level circuit
// construction, and Table1 as the one figure-regeneration timing.
// `make bench-simcore` records exactly these ten in BENCH_simcore.json.
//
// They report rates (cycles/s) and ns/op, never a paper or ablation
// result: cmd/paperfigs prints those from internal/experiments, and the
// experiments tests assert them. End-to-end sweeps, the result store and
// the compile cache are measured by perfbench.
package vliwmt_test

import (
	"math/rand"
	"testing"

	"vliwmt"
	"vliwmt/internal/cache"
	"vliwmt/internal/experiments"
	"vliwmt/internal/isa"
	"vliwmt/internal/logic"
	"vliwmt/internal/merge"
	"vliwmt/internal/refsim"
	"vliwmt/internal/sim"
	"vliwmt/internal/workload"
)

// BenchmarkTable1 times the regeneration of Table 1 (24 single-thread
// runs through the sweep engine) at a 30k-instruction budget.
func BenchmarkTable1(b *testing.B) {
	opts := experiments.DefaultOptions().Scale(30_000)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks -----------------------------------------------

// mergeSelectSets builds 256 random candidate sets in the Selector
// convention (value slice + valid bitmask).
func mergeSelectSets() ([][]isa.Occupancy, []uint32) {
	r := rand.New(rand.NewSource(1))
	var sets [][]isa.Occupancy
	var valids []uint32
	for i := 0; i < 256; i++ {
		cands := make([]isa.Occupancy, 4)
		var valid uint32
		for p := range cands {
			if r.Intn(5) == 0 {
				continue
			}
			var ops []isa.Op
			for j := 0; j < 1+r.Intn(6); j++ {
				ops = append(ops, isa.Op{Class: isa.OpALU, Cluster: uint8(r.Intn(4))})
			}
			cands[p] = isa.OccupancyOf(ops)
			valid |= 1 << uint(p)
		}
		sets = append(sets, cands)
		valids = append(valids, valid)
	}
	return sets, valids
}

// BenchmarkMergeSelect measures the merge-stage selection throughput
// of the recommended scheme on the evaluator the simulator drives every
// multi-candidate cycle: the compiled SelectPacked over a packed
// occupancy dictionary, built outside the timed loop as sim.Run builds
// it once per run. 2SC3 is a left-deep cascade, so this times the fold.
func BenchmarkMergeSelect(b *testing.B) { benchMergeSelect(b, "2SC3") }

// BenchmarkMergeSelectBalanced times the balanced 2SS tree, built the
// same way, on the chain evaluator every balanced scheme runs on.
func BenchmarkMergeSelectBalanced(b *testing.B) { benchMergeSelect(b, "2SS") }

// benchMergeSelect times SelectPacked of the named 4-port scheme on the
// mergeSelectSets candidates.
func benchMergeSelect(b *testing.B, name string) {
	m := isa.Default()
	scheme, err := merge.Resolve(name)
	if err != nil {
		b.Fatal(err)
	}
	sel, err := scheme.Selector(4)
	if err != nil {
		b.Fatal(err)
	}
	lim, ok := merge.PackLimits(&m)
	if !ok {
		b.Fatal("default machine unpackable")
	}
	sets, valids := mergeSelectSets()
	var dict []merge.PackedOcc
	ids := make([][]int32, len(sets))
	for i, cands := range sets {
		ids[i] = make([]int32, len(cands))
		for p := range cands {
			po, ok := merge.PackOcc(&cands[p])
			if !ok {
				b.Fatalf("candidate unpackable: %v", cands[p])
			}
			ids[i][p] = int32(len(dict))
			dict = append(dict, po)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mask, _ := sel.SelectPacked(dict, &lim, ids[i%len(ids)], valids[i%len(valids)])
		mergeSelectSink += mask
	}
}

// mergeSelectSink keeps BenchmarkMergeSelect's calls observable.
var mergeSelectSink uint32

// BenchmarkMergeSelectRef measures the recursive reference tree walk on
// the same inputs — the pre-compilation selection path, kept as the
// refsim oracle. The gap to BenchmarkMergeSelect is the compiled
// selector's win.
func BenchmarkMergeSelectRef(b *testing.B) {
	m := isa.Default()
	sch, err := merge.Resolve("2SC3")
	if err != nil {
		b.Fatal(err)
	}
	tree := sch.Tree()
	sets, valids := mergeSelectSets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Select(&m, sets[i%len(sets)], valids[i%len(valids)])
	}
}

// benchCycles runs mixName's four kernels under cfg through run and
// reports simulated cycles per second; compilation stays outside the
// timer.
func benchCycles(b *testing.B, cfg vliwmt.Config, mixName string, run func(vliwmt.Config, []sim.Task) (*vliwmt.Result, error)) {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		b.Fatal(err)
	}
	var tasks []sim.Task
	for _, name := range mix.Members {
		p, err := vliwmt.CompileBenchmark(name, cfg.Machine)
		if err != nil {
			b.Fatal(err)
		}
		tasks = append(tasks, sim.Task{Name: name, Prog: p})
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(cfg, tasks)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cycles)/sec, "cycles/s")
	}
}

// simulatorConfig is the merge-heavy 4-thread run under 2SC3.
func simulatorConfig() vliwmt.Config {
	cfg := vliwmt.DefaultConfig()
	cfg.Scheme = "2SC3"
	cfg.InstrLimit = 20_000
	cfg.TimesliceCycles = 5_000
	return cfg
}

// BenchmarkSimulator measures raw simulation speed (cycles per second) on
// the 4-thread LLHH workload under 2SC3.
func BenchmarkSimulator(b *testing.B) { benchCycles(b, simulatorConfig(), "LLHH", sim.Run) }

// stallHeavyConfig is the miss-dominated regime of the realistic-memory
// experiments, exaggerated: simulatorConfig with a small data cache and a
// long miss penalty, so all four threads spend most cycles stalled
// together. This is the workload the stall fast-forward exists for
// (DESIGN.md) — the naive loop burns one iteration per stalled cycle, the
// optimized loop jumps straight to the next wake-up.
func stallHeavyConfig() vliwmt.Config {
	cfg := simulatorConfig()
	cfg.DCache = cache.Config{Size: 2 << 10, LineSize: 64, Ways: 2, MissPenalty: 200}
	return cfg
}

// BenchmarkStallHeavy measures the optimized simulator on the
// miss-dominated LLLL workload (stall fast-forward active).
func BenchmarkStallHeavy(b *testing.B) { benchCycles(b, stallHeavyConfig(), "LLLL", sim.Run) }

// BenchmarkStallHeavyRef measures the naive reference loop (the
// pre-optimization simulator, kept as the refsim oracle) on the same
// workload; the ratio to BenchmarkStallHeavy is the fast-forward win.
func BenchmarkStallHeavyRef(b *testing.B) { benchCycles(b, stallHeavyConfig(), "LLLL", refsim.Run) }

// BenchmarkCompile measures compilation of the widest kernel.
func BenchmarkCompile(b *testing.B) {
	bench, err := workload.ByName("colorspace")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := bench.Compile(isa.Default()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheAccess measures the set-associative cache model.
func BenchmarkCacheAccess(b *testing.B) {
	c, err := cache.New(cache.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 22))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)], i%7 == 0)
	}
}

// BenchmarkCircuitBuild measures gate-level construction of the most
// expensive merge control (8-thread parallel CSMT).
func BenchmarkCircuitBuild(b *testing.B) {
	m := isa.Default()
	for i := 0; i < b.N; i++ {
		tree, err := merge.ParallelCSMT("C8", 8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := logic.BuildScheme(&m, tree); err != nil {
			b.Fatal(err)
		}
	}
}
