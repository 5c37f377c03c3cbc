// Benchmark harness: one testing.B benchmark per table/figure of the
// paper (regenerating it at reduced scale and reporting the headline
// metric), micro-benchmarks of the core components, and ablation benches
// for the design choices called out in DESIGN.md.
//
// Full-size regeneration with text output is cmd/paperfigs; these benches
// make the experiments repeatable under `go test -bench`.
package vliwmt_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"

	"vliwmt"
	"vliwmt/internal/cache"
	"vliwmt/internal/experiments"
	"vliwmt/internal/fabric"
	"vliwmt/internal/isa"
	"vliwmt/internal/logic"
	"vliwmt/internal/merge"
	"vliwmt/internal/refsim"
	"vliwmt/internal/server"
	"vliwmt/internal/sim"
	"vliwmt/internal/workload"
)

func benchOpts() experiments.Options {
	return experiments.DefaultOptions().Scale(30_000)
}

// BenchmarkTable1 regenerates Table 1 (per-benchmark IPCr/IPCp) and
// reports the measured average IPCp across the twelve benchmarks.
func BenchmarkTable1(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		s := 0.0
		for _, r := range rows {
			s += r.IPCp
		}
		avg = s / float64(len(rows))
	}
	b.ReportMetric(avg, "avg-IPCp")
}

// BenchmarkFigure4 regenerates Figure 4 and reports the 4-thread-over-
// 2-thread SMT advantage in percent (the paper reports +61%).
func BenchmarkFigure4(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		adv = 100 * (f.FourThread - f.TwoThread) / f.TwoThread
	}
	b.ReportMetric(adv, "4T-vs-2T-%")
}

// BenchmarkFigure5 regenerates Figure 5 (merge-control scaling 2..8
// threads) and reports the CSMT-parallel/SMT transistor ratio at 8 threads
// (the paper's crossover: above 1 means the parallel form overtook SMT).
func BenchmarkFigure5(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig5(isa.Default())
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		ratio = float64(last.CSMTParallel.Transistors) / float64(last.SMT.Transistors)
	}
	b.ReportMetric(ratio, "PL/SMT-tr@8")
}

// BenchmarkFigure6 regenerates Figure 6 and reports the average SMT
// advantage over CSMT in percent (the paper reports +27%).
func BenchmarkFigure6(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		adv = rows[len(rows)-1].AdvantagePc
	}
	b.ReportMetric(adv, "SMT-vs-CSMT-%")
}

// BenchmarkFigure9 regenerates Figure 9 (cost of all sixteen schemes) and
// reports the 2SC3/1S transistor ratio (the paper's headline: close to 1).
func BenchmarkFigure9(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		costs, err := experiments.Fig9(isa.Default())
		if err != nil {
			b.Fatal(err)
		}
		by := map[string]int{}
		for _, c := range costs {
			by[c.Scheme] = c.Transistors
		}
		ratio = float64(by["2SC3"]) / float64(by["1S"])
	}
	b.ReportMetric(ratio, "2SC3/1S-tr")
}

// BenchmarkFigure10 regenerates Figure 10 (all schemes on all mixes) and
// reports the 2SC3 average IPC.
func BenchmarkFigure10(b *testing.B) {
	var ipc float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		ipc = rows[len(rows)-1].IPC["2SC3"]
	}
	b.ReportMetric(ipc, "2SC3-IPC")
}

// BenchmarkFigure11And12 regenerates the cost/performance trade-off
// scatter data and reports 2SC3's fraction of 3SSS performance (the paper:
// within 11%, i.e. about 0.89).
func BenchmarkFigure11And12(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		rows, err := experiments.Fig10(opts)
		if err != nil {
			b.Fatal(err)
		}
		pts, err := experiments.Tradeoffs(opts.Machine, rows)
		if err != nil {
			b.Fatal(err)
		}
		var sc3, sss float64
		for _, p := range pts {
			switch p.Scheme {
			case "2SC3":
				sc3 = p.IPC
			case "3SSS":
				sss = p.IPC
			}
		}
		frac = sc3 / sss
	}
	b.ReportMetric(frac, "2SC3/3SSS-IPC")
}

// --- Sweep engine benches ---------------------------------------------

// benchSweep pushes the full Figure 10 grid (16 schemes x 9 mixes, 144
// jobs) through the public sweep API and reports throughput.
func benchSweep(b *testing.B, workers int) {
	grid := vliwmt.Grid{InstrLimit: 10_000, Seed: 1}
	jobs := 0
	for i := 0; i < b.N; i++ {
		results, err := vliwmt.Sweep(context.Background(), grid, &vliwmt.SweepOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if _, err := r.IPC(); err != nil {
				b.Fatal(err)
			}
			jobs++
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)/sec, "jobs/s")
	}
}

// BenchmarkSweepGrid runs the grid at full parallelism (one worker per
// core); compare with BenchmarkSweepGridSerial for the engine's speedup.
func BenchmarkSweepGrid(b *testing.B) { benchSweep(b, 0) }

// BenchmarkSweepGridSerial pins the same sweep to a single worker — the
// serial baseline the worker pool is measured against.
func BenchmarkSweepGridSerial(b *testing.B) { benchSweep(b, 1) }

// storeBenchGrid is the grid both result-store benches sweep: the
// paper's sixteen schemes over two mixes (32 jobs) at a scaled-down
// budget — large enough that per-job simulation dominates per-job
// setup, as in real sweeps (the CLI default budget is 300k).
func storeBenchGrid() vliwmt.Grid {
	return vliwmt.Grid{Mixes: []string{"LLHH", "HHHH"}, InstrLimit: 100_000, Seed: 1}
}

// BenchmarkStoreColdSweep measures a sweep into an empty result store:
// every job simulates and persists, so the delta against
// BenchmarkSweepGrid is the store's write-path overhead. Each
// iteration gets a fresh directory (a fresh Runner with an empty
// compile cache, too, so cold means cold). Units are pinned to one
// lane — every job is its own sim.RunBatch call — which is the
// baseline BenchmarkBatchedSweep is measured against.
func BenchmarkStoreColdSweep(b *testing.B) {
	grid := storeBenchGrid()
	jobs := 0
	for i := 0; i < b.N; i++ {
		r := vliwmt.NewRunner(vliwmt.WithResultStore(b.TempDir()), vliwmt.WithBatch(1))
		results, err := r.Sweep(context.Background(), grid)
		if err != nil {
			b.Fatal(err)
		}
		jobs += len(results)
		if st := r.Store().Stats(); st.Hits != 0 {
			b.Fatalf("cold sweep hit the store: %+v", st)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)/sec, "jobs/s")
	}
}

// BenchmarkBatchedSweep is BenchmarkStoreColdSweep with the batched
// simulation core on (the default): shape-compatible jobs advance
// through one shared cycle loop with shared compiled plans and the
// packed selection dictionary. Same grid, same cold store,
// bit-identical results —
// the jobs/s ratio against BenchmarkStoreColdSweep is the batching
// speedup the sweep engine delivers on one core.
func BenchmarkBatchedSweep(b *testing.B) {
	grid := storeBenchGrid()
	jobs := 0
	for i := 0; i < b.N; i++ {
		r := vliwmt.NewRunner(vliwmt.WithResultStore(b.TempDir()))
		results, err := r.Sweep(context.Background(), grid)
		if err != nil {
			b.Fatal(err)
		}
		jobs += len(results)
		if st := r.Store().Stats(); st.Hits != 0 {
			b.Fatalf("cold sweep hit the store: %+v", st)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)/sec, "jobs/s")
	}
}

// BenchmarkStoreWarmSweep measures the same sweep served entirely from
// a warm store: zero compiles, zero simulations, pure disk reads. The
// ratio to BenchmarkStoreColdSweep is the cache's speedup on repeated
// experiments (and its jobs/s is the replay ceiling of a conformance
// run over a committed corpus).
func BenchmarkStoreWarmSweep(b *testing.B) {
	grid := storeBenchGrid()
	dir := b.TempDir()
	warm := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
	if _, err := warm.Sweep(context.Background(), grid); err != nil {
		b.Fatal(err)
	}
	jobs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
		results, err := r.Sweep(context.Background(), grid)
		if err != nil {
			b.Fatal(err)
		}
		jobs += len(results)
		if st := r.Store().Stats(); st.Misses != 0 {
			b.Fatalf("warm sweep missed the store: %+v", st)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)/sec, "jobs/s")
	}
}

// BenchmarkStoreHotSweep is BenchmarkStoreWarmSweep on one reused
// Runner, as a long-lived server sweeps on one store handle: the first
// pass decodes every entry off disk, and later passes are served from
// the handle's decoded copies after a stat of each entry file. The
// ratio to BenchmarkStoreWarmSweep is what skipping the read and
// decode saves per hit.
func BenchmarkStoreHotSweep(b *testing.B) {
	grid := storeBenchGrid()
	dir := b.TempDir()
	warm := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
	if _, err := warm.Sweep(context.Background(), grid); err != nil {
		b.Fatal(err)
	}
	r := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
	jobs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := r.Sweep(context.Background(), grid)
		if err != nil {
			b.Fatal(err)
		}
		jobs += len(results)
	}
	b.StopTimer()
	if st := r.Store().Stats(); st.Misses != 0 {
		b.Fatalf("hot sweep missed the store: %+v", st)
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)/sec, "jobs/s")
	}
}

// generatedBenchGrid is storeBenchGrid over synthetic workloads: two
// generated mixes named canonically, so every iteration regenerates
// the kernels from their names before compiling — the full
// name -> profile -> IR -> compile -> simulate pipeline the generative
// conformance harness exercises, at the store benches' budget.
func generatedBenchGrid() vliwmt.Grid {
	return vliwmt.Grid{
		Mixes:      []string{"genmix:LLHH:s1", "genmix:HHHH:s3"},
		InstrLimit: 100_000,
		Seed:       1,
	}
}

// BenchmarkGeneratedSweepCold measures a cold sweep over generated
// workloads: fresh store and compile cache each iteration, so kernel
// generation and compilation are inside the measurement. The delta
// against BenchmarkBatchedSweep (same shape over hand-written
// benchmarks) is what generation costs a real sweep.
func BenchmarkGeneratedSweepCold(b *testing.B) {
	grid := generatedBenchGrid()
	jobs := 0
	for i := 0; i < b.N; i++ {
		r := vliwmt.NewRunner(vliwmt.WithResultStore(b.TempDir()))
		results, err := r.Sweep(context.Background(), grid)
		if err != nil {
			b.Fatal(err)
		}
		jobs += len(results)
		if st := r.Store().Stats(); st.Hits != 0 {
			b.Fatalf("cold sweep hit the store: %+v", st)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)/sec, "jobs/s")
	}
}

// BenchmarkGeneratedSweepWarm is the same generated sweep served from
// a warm store: generated jobs hash to the same content keys every
// time (their canonical names are in the key), so the store serves
// them without regenerating or simulating anything — proof that
// generated workloads cache exactly like hand-written ones.
func BenchmarkGeneratedSweepWarm(b *testing.B) {
	grid := generatedBenchGrid()
	dir := b.TempDir()
	warm := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
	if _, err := warm.Sweep(context.Background(), grid); err != nil {
		b.Fatal(err)
	}
	jobs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
		results, err := r.Sweep(context.Background(), grid)
		if err != nil {
			b.Fatal(err)
		}
		jobs += len(results)
		if st := r.Store().Stats(); st.Misses != 0 {
			b.Fatalf("warm sweep missed the store: %+v", st)
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(jobs)/sec, "jobs/s")
	}
}

// BenchmarkRunnerReuse quantifies the Runner session's shared-compile-
// cache win: repeated RunMix calls on one long-lived Runner (kernels
// compiled once, every later call served from the cache) against the
// worst case of a fresh private-cache Runner per call (the pre-session
// behaviour of the top-level functions, which compiled the mix from
// scratch every time).
func BenchmarkRunnerReuse(b *testing.B) {
	cfg := vliwmt.DefaultConfig()
	cfg.Scheme = "2SC3"
	cfg.InstrLimit = 5_000
	cfg.TimesliceCycles = 1_000
	b.Run("SharedRunner", func(b *testing.B) {
		r := vliwmt.NewRunner()
		for i := 0; i < b.N; i++ {
			if _, err := r.RunMix(cfg, "LLHH"); err != nil {
				b.Fatal(err)
			}
		}
		compiles, hits := r.Cache().Stats()
		b.ReportMetric(float64(compiles), "compiles")
		b.ReportMetric(float64(hits), "cache-hits")
	})
	b.Run("FreshRunner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vliwmt.NewRunner().RunMix(cfg, "LLHH"); err != nil {
				b.Fatal(err)
			}
		}
	})
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
// occupancy dictionary, built outside the timed loop as RunBatch builds
// it once per batch.
func BenchmarkMergeSelect(b *testing.B) {
	m := isa.Default()
	sel, err := merge.NewSelector("2SC3", 4)
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
	tree, err := merge.Parse("2SC3", 4)
	if err != nil {
		b.Fatal(err)
	}
	sets, valids := mergeSelectSets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Select(&m, sets[i%len(sets)], valids[i%len(valids)])
	}
}

// BenchmarkSimulator measures raw simulation speed (cycles per second) on
// the 4-thread LLHH workload under 2SC3.
func BenchmarkSimulator(b *testing.B) {
	cfg := vliwmt.DefaultConfig()
	cfg.Scheme = "2SC3"
	cfg.InstrLimit = 20_000
	cfg.TimesliceCycles = 5_000
	mix, err := workload.MixByName("LLHH")
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
		res, err := sim.Run(cfg, tasks)
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

// stallHeavyConfig is the miss-dominated regime of the realistic-memory
// experiments, exaggerated: a small data cache with a long miss penalty,
// so all four threads spend most cycles stalled together. This is the
// workload the stall fast-forward exists for (DESIGN.md) — the naive
// loop burns one iteration per stalled cycle, the optimized loop jumps
// straight to the next wake-up.
func stallHeavyConfig() vliwmt.Config {
	cfg := vliwmt.DefaultConfig()
	cfg.Scheme = "2SC3"
	cfg.InstrLimit = 20_000
	cfg.TimesliceCycles = 5_000
	cfg.DCache = cache.Config{Size: 2 << 10, LineSize: 64, Ways: 2, MissPenalty: 200}
	return cfg
}

func stallHeavyTasks(b *testing.B, cfg vliwmt.Config) []sim.Task {
	b.Helper()
	mix, err := workload.MixByName("LLLL")
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
	return tasks
}

// benchStall runs the miss-heavy workload through run and reports
// simulated cycles per second.
func benchStall(b *testing.B, run func(vliwmt.Config, []sim.Task) (*vliwmt.Result, error)) {
	cfg := stallHeavyConfig()
	tasks := stallHeavyTasks(b, cfg)
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

// BenchmarkStallHeavy measures the optimized simulator on the
// miss-dominated workload (stall fast-forward active).
func BenchmarkStallHeavy(b *testing.B) { benchStall(b, sim.Run) }

// BenchmarkStallHeavyRef measures the naive reference loop (the
// pre-optimization simulator, kept as the refsim oracle) on the same
// workload; the ratio to BenchmarkStallHeavy is the fast-forward win.
func BenchmarkStallHeavyRef(b *testing.B) { benchStall(b, refsim.Run) }

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

// --- Ablation benches -------------------------------------------------

// BenchmarkAblationPriorityRotation compares round-robin priority rotation
// against fixed priority on 4-thread CSMT and reports the rotation gain.
func BenchmarkAblationPriorityRotation(b *testing.B) {
	run := func(fixed bool) float64 {
		cfg := vliwmt.DefaultConfig()
		cfg.Scheme = "3CCC"
		cfg.InstrLimit = 20_000
		cfg.TimesliceCycles = 5_000
		cfg.FixedPriority = fixed
		res, err := vliwmt.RunMix(cfg, "MMMM")
		if err != nil {
			b.Fatal(err)
		}
		return res.IPC
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = 100 * (run(false) - run(true)) / run(true)
	}
	b.ReportMetric(gain, "rotation-gain-%")
}

// BenchmarkAblationBalancedVsCascade compares the balanced trees against
// their cascades (2CC vs 3CCC and 2SS vs 3SSS): lower delay, but the
// all-or-nothing sub-packet rule costs performance.
func BenchmarkAblationBalancedVsCascade(b *testing.B) {
	run := func(scheme string) float64 {
		cfg := vliwmt.DefaultConfig()
		cfg.Scheme = scheme
		cfg.InstrLimit = 20_000
		cfg.TimesliceCycles = 5_000
		res, err := vliwmt.RunMix(cfg, "LLMM")
		if err != nil {
			b.Fatal(err)
		}
		return res.IPC
	}
	var lossC float64
	for i := 0; i < b.N; i++ {
		lossC = 100 * (run("3CCC") - run("2CC")) / run("3CCC")
	}
	b.ReportMetric(lossC, "2CC-loss-vs-3CCC-%")
}

// BenchmarkAblationUnroll sweeps the compiler unroll factor on the
// colorspace kernel and reports the IPC spread (the taken-branch penalty
// amortisation DESIGN.md calls out).
func BenchmarkAblationUnroll(b *testing.B) {
	bench, err := workload.ByName("colorspace")
	if err != nil {
		b.Fatal(err)
	}
	m := isa.Default()
	var spread float64
	for i := 0; i < b.N; i++ {
		ipcs := map[int]float64{}
		for _, u := range []int{1, 2, 4} {
			prog, err := vliwmt.CompileKernel(bench.Build(), m, u)
			if err != nil {
				b.Fatal(err)
			}
			ipc, err := vliwmt.SingleThreadIPC(m, prog, 20_000, true)
			if err != nil {
				b.Fatal(err)
			}
			ipcs[u] = ipc
		}
		spread = 100 * (ipcs[4] - ipcs[1]) / ipcs[1]
	}
	b.ReportMetric(spread, "unroll4-vs-1-%")
}

// BenchmarkAblationBaselines compares the classic multithreading baselines
// (IMT, BMT) against merged issue on the same workload, reporting the
// 2SC3-over-IMT gain.
func BenchmarkAblationBaselines(b *testing.B) {
	run := func(scheme string) float64 {
		cfg := vliwmt.DefaultConfig()
		cfg.Scheme = scheme
		cfg.InstrLimit = 20_000
		cfg.TimesliceCycles = 5_000
		res, err := vliwmt.RunMix(cfg, "LLMM")
		if err != nil {
			b.Fatal(err)
		}
		return res.IPC
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		imt := run("IMT")
		_ = run("BMT")
		gain = 100 * (run("2SC3") - imt) / imt
	}
	b.ReportMetric(gain, "2SC3-vs-IMT-%")
}

// BenchmarkExtension8Threads runs the beyond-the-paper scaling experiment
// (eight hardware threads) and reports the buildable hybrid's fraction of
// full 8-thread SMT performance.
func BenchmarkExtension8Threads(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Scaling8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var hybrid, smt float64
		for _, r := range rows {
			switch r.Scheme {
			case "4SC3C3C3":
				hybrid = r.IPC
			case "7SSSSSSS":
				smt = r.IPC
			}
		}
		frac = hybrid / smt
	}
	b.ReportMetric(frac, "hybrid/SMT-IPC")
}

// BenchmarkFabricSweep measures the distributed sweep path end to end:
// a fabric coordinator sharding the store-bench grid (32 jobs) across
// two local vliwserve workers over real HTTP and merging the results
// in index order. On one box the delta against BenchmarkSweepGrid is
// the fabric's wire, sharding and coordination overhead; across boxes
// that overhead buys the fan-out the ROADMAP's cluster-scale target
// needs.
func BenchmarkFabricSweep(b *testing.B) {
	jobs, err := storeBenchGrid().Jobs()
	if err != nil {
		b.Fatal(err)
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		wsrv := server.New(server.Options{})
		wts := httptest.NewServer(wsrv.Handler())
		b.Cleanup(wts.Close)
		b.Cleanup(wsrv.Close)
		addrs = append(addrs, wts.URL)
	}
	coord, err := fabric.New(fabric.Options{Workers: addrs, ShardJobs: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(coord.Close)

	done := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := coord.Run(context.Background(), jobs, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		done += len(results)
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(done)/sec, "jobs/s")
	}
}
