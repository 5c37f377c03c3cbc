package sim_test

// The bit-identity contract of the optimized simulator: sim.Run (the
// lane core with one lane: compiled selectors, stall fast-forward,
// allocation-free cycle loop) must return
// exactly the Result the naive reference loop in internal/refsim
// returns — same cycles, merge histogram, per-thread stats, cache stats
// — for every scheme, memory model and seed. These tests enforce it
// over the full paper matrix and over randomized configurations.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/refsim"
	"vliwmt/internal/sim"
	"vliwmt/internal/telemetry"
	"vliwmt/internal/workload"
)

// diffTasks compiles a pool of paper benchmarks once for the default
// machine: a spread of ILP classes and memory behaviours.
func diffTasks(t testing.TB, m isa.Machine) []sim.Task {
	t.Helper()
	names := []string{"mcf", "blowfish", "g721encode", "djpeg", "x264", "colorspace"}
	tasks := make([]sim.Task, 0, len(names))
	for _, n := range names {
		b, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Compile(m)
		if err != nil {
			t.Fatalf("compile %s: %v", n, err)
		}
		tasks = append(tasks, sim.Task{Name: n, Prog: p})
	}
	return tasks
}

// runBoth runs the optimized and reference simulators on identical
// inputs and fails unless the Results are deeply equal.
func runBoth(t *testing.T, cfg sim.Config, tasks []sim.Task) {
	t.Helper()
	fast, errFast := sim.Run(cfg, tasks)
	ref, errRef := refsim.Run(cfg, tasks)
	if (errFast == nil) != (errRef == nil) {
		t.Fatalf("error divergence: sim %v, refsim %v", errFast, errRef)
	}
	if errFast != nil {
		return
	}
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("result divergence:\n optimized: %+v\n reference: %+v", fast, ref)
	}
}

// TestDifferentialPaperMatrix runs the full acceptance matrix: all 16
// paper schemes, the IMT/BMT baselines and a custom tree expression,
// under perfect and realistic memory, for seeds 1..3, with more tasks
// than contexts so timeslice scheduling (and its RNG draws) is
// exercised.
func TestDifferentialPaperMatrix(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)
	schemes := append(merge.PaperSchemes4(), "IMT", "BMT", "C(S(T0,T1),T2,T3)")
	for _, scheme := range schemes {
		contexts := ports(t, scheme)
		for _, perfect := range []bool{true, false} {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/perfect=%v/seed=%d", scheme, perfect, seed)
				t.Run(name, func(t *testing.T) {
					cfg := sim.DefaultConfig()
					cfg.Scheme = scheme
					cfg.Contexts = contexts
					cfg.PerfectMemory = perfect
					cfg.InstrLimit = 1_500
					cfg.TimesliceCycles = 700
					cfg.Seed = seed
					runBoth(t, cfg, tasks)
				})
			}
		}
	}
}

// TestDifferentialStallHeavy aims at the fast-forward path specifically:
// a tiny data cache with a long miss penalty makes all-stalled spans the
// common case, including spans that cross timeslice boundaries.
func TestDifferentialStallHeavy(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)
	cfg := sim.DefaultConfig()
	cfg.Scheme = "2SC3"
	cfg.InstrLimit = 1_000
	cfg.TimesliceCycles = 300
	cfg.DCache = cache.Config{Size: 4 << 10, LineSize: 64, Ways: 2, MissPenalty: 150}
	runBoth(t, cfg, tasks)

	// Zero-penalty misses: a stalled thread whose readyAt equals the
	// current cycle must wake next cycle, not never.
	cfg.ICache = cache.Config{Size: 4 << 10, LineSize: 64, Ways: 2, MissPenalty: 0}
	runBoth(t, cfg, tasks)
}

// TestDifferentialTimeout covers the MaxCycles fast-forward clamp: when
// every thread is stalled past MaxCycles the optimized loop must report
// the same truncated cycle count and timeout flag.
func TestDifferentialTimeout(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)[:4]
	cfg := sim.DefaultConfig()
	cfg.Scheme = "3CCC"
	cfg.InstrLimit = 1 << 40 // unreachable
	cfg.MaxCycles = 3_000
	cfg.DCache = cache.Config{Size: 1 << 10, LineSize: 64, Ways: 1, MissPenalty: 500}
	runBoth(t, cfg, tasks)
}

// TestDifferentialRandomConfigs fuzzes the configuration space: random
// schemes (including FixedPriority, baselines, single context, task
// counts above and below the context count, odd cache geometries and
// timeslices), each compared run-for-run against the oracle.
func TestDifferentialRandomConfigs(t *testing.T) {
	m := isa.Default()
	all := diffTasks(t, m)
	r := rand.New(rand.NewSource(404))
	schemes := []string{"3SSS", "3CCC", "2SC3", "2SS", "2CS", "C4", "1S", "IMT", "BMT", "S(C(T3,T1),C(T2,T0))"}
	iters := 40
	if testing.Short() {
		iters = 12
	}
	for i := 0; i < iters; i++ {
		scheme := schemes[r.Intn(len(schemes))]
		contexts := ports(t, scheme)
		if scheme == "IMT" || scheme == "BMT" {
			contexts = []int{2, 4}[r.Intn(2)]
		}
		if r.Intn(8) == 0 {
			contexts, scheme = 1, ""
		}
		cfg := sim.DefaultConfig()
		cfg.Scheme = scheme
		cfg.Contexts = contexts
		cfg.PerfectMemory = r.Intn(2) == 0
		cfg.FixedPriority = r.Intn(4) == 0
		cfg.InstrLimit = int64(200 + r.Intn(1200))
		cfg.TimesliceCycles = int64(100 + r.Intn(900))
		cfg.Seed = r.Uint64()
		if !cfg.PerfectMemory {
			cfg.DCache = cache.Config{Size: 4 << 10, LineSize: 64, Ways: 2, MissPenalty: r.Intn(200)}
		}
		nTasks := 1 + r.Intn(len(all))
		if nTasks < contexts {
			nTasks = contexts
		}
		t.Run(fmt.Sprintf("%02d_%s_c%d_n%d", i, scheme, contexts, nTasks), func(t *testing.T) {
			runBoth(t, cfg, all[:nTasks])
		})
	}
}

// TestDifferentialPinnedFetch compares the two loops under I-cache
// geometries on both sides of the pinned-fetch rule (cache.Cache.Pin):
// the default 64 KB cache, where every set of four kernels' code fits
// its ways and every fetch is a Touch; the 1 KB direct-mapped cache,
// where some sets fit and others overflow; and a 128-byte direct-mapped
// cache, where every set overflows and every fetch is an Access. The
// resident-fetch counter shows which kind each geometry ran.
func TestDifferentialPinnedFetch(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)[:4]
	geoms := []struct {
		name string
		ic   cache.Config
		// want reports whether the resident fetches fit the geometry's
		// kind, given the run's I-cache accesses.
		want func(resident, accesses int64) bool
	}{
		{"every-set-fits", cache.DefaultConfig(), func(r, a int64) bool { return r == a && a > 0 }},
		{"some-sets-overflow", cache.Config{Size: 1 << 10, LineSize: 64, Ways: 1, MissPenalty: 30},
			func(r, a int64) bool { return r > 0 && r < a }},
		{"every-set-overflows", cache.Config{Size: 128, LineSize: 64, Ways: 1, MissPenalty: 7},
			func(r, a int64) bool { return r == 0 && a > 0 }},
	}
	for _, g := range geoms {
		for _, scheme := range []string{"2SC3", "2SS", "BMT"} {
			t.Run(g.name+"/"+scheme, func(t *testing.T) {
				cfg := sim.DefaultConfig()
				cfg.Scheme = scheme
				cfg.InstrLimit = 3_000
				cfg.ICache = g.ic
				before := telemetry.Default().Snapshot().Counter("sim_icache_resident_fetches_total")
				runBoth(t, cfg, tasks)
				resident := telemetry.Default().Snapshot().Counter("sim_icache_resident_fetches_total") - before
				res, err := sim.Run(cfg, tasks)
				if err != nil {
					t.Fatal(err)
				}
				if !g.want(resident, res.ICache.Accesses) {
					t.Errorf("%d of %d I-cache accesses were resident fetches; the geometry should give %s", resident, res.ICache.Accesses, g.name)
				}
			})
		}
	}
}

// TestDifferentialIMTFewerTasksThanContexts pins the idle-context case:
// baselines run at 4 contexts with fewer tasks, leaving contexts idle
// forever.
func TestDifferentialIMTFewerTasksThanContexts(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)[:2]
	for _, scheme := range []string{"IMT", "BMT"} {
		cfg := sim.DefaultConfig()
		cfg.Scheme = scheme
		cfg.InstrLimit = 2_000
		runBoth(t, cfg, tasks)
	}
}

// TestSteadyStateZeroAllocs asserts the allocation-free core: heap
// allocations must not grow with simulated cycles. Each Run pays a
// fixed setup cost (plans, walkers, caches, the lane's buffers); a 6x
// longer run must allocate nothing more.
func TestSteadyStateZeroAllocs(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)[:4]
	measure := func(instrs int64) float64 {
		cfg := sim.DefaultConfig()
		cfg.Scheme = "2SC3"
		cfg.InstrLimit = instrs
		cfg.TimesliceCycles = 1_000
		cfg.DCache = cache.Config{Size: 8 << 10, LineSize: 64, Ways: 2, MissPenalty: 20}
		return testing.AllocsPerRun(5, func() {
			if _, err := sim.Run(cfg, tasks); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(2_000)
	long := measure(12_000)
	if long > short {
		t.Errorf("allocations grew with run length: %.1f for 2k instrs, %.1f for 12k — the cycle loop allocates", short, long)
	}
}

// TestFastForwardAccounting checks the bulk accounting of skipped spans
// directly: cycles, the merge histogram and EmptyCycles must still
// cover the whole run.
func TestFastForwardAccounting(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)[:4]
	cfg := sim.DefaultConfig()
	cfg.Scheme = "2SC3"
	cfg.InstrLimit = 2_000
	cfg.DCache = cache.Config{Size: 2 << 10, LineSize: 64, Ways: 2, MissPenalty: 200}
	res, err := sim.Run(cfg, tasks)
	if err != nil {
		t.Fatal(err)
	}
	var hist int64
	for _, n := range res.MergeHist {
		hist += n
	}
	if hist != res.Cycles {
		t.Errorf("merge histogram covers %d of %d cycles", hist, res.Cycles)
	}
	if res.MergeHist[0] == 0 {
		t.Error("miss-heavy run recorded no empty cycles; fast-forward path untested")
	}
	if res.EmptyCycles < res.MergeHist[0] {
		t.Errorf("EmptyCycles %d below all-stalled cycles %d", res.EmptyCycles, res.MergeHist[0])
	}
}

// TestStrayClusterCountRejected: a hand-built occupancy with a
// slot-class count but Total 0 on a cluster the machine lacks is beyond
// what the packed merge stage accepts, so Program.Validate must reject
// it — and both loops, which share that check, refuse the run rather
// than one of them failing later at packing.
func TestStrayClusterCountRejected(t *testing.T) {
	m := isa.Default()
	good := diffTasks(t, m)[0]
	prog := *good.Prog
	prog.Blocks = append(prog.Blocks[:0:0], prog.Blocks...)
	prog.Blocks[0].Instrs = append(prog.Blocks[0].Instrs[:0:0], prog.Blocks[0].Instrs...)
	prog.Blocks[0].Instrs[0].Occ.Clusters[isa.MaxClusters-1].Mul = 64
	verr := prog.Validate(&m)
	if verr == nil {
		t.Fatal("Program.Validate accepted a stray count on a missing cluster")
	}
	for _, scheme := range []string{"", "2SC3", "BMT"} {
		contexts := 4
		if scheme == "" {
			contexts = 1
		}
		cfg := sim.DefaultConfig()
		cfg.Contexts = contexts
		cfg.Scheme = scheme
		cfg.InstrLimit = 1000
		tasks := []sim.Task{{Name: "stray", Prog: &prog}}
		for len(tasks) < contexts {
			tasks = append(tasks, good)
		}
		_, errFast := sim.Run(cfg, tasks)
		_, errRef := refsim.Run(cfg, tasks)
		if errFast == nil || errRef == nil ||
			!strings.Contains(errFast.Error(), verr.Error()) || !strings.Contains(errRef.Error(), verr.Error()) {
			t.Fatalf("%q: want both loops to fail Program.Validate (%v): sim %v, refsim %v", scheme, verr, errFast, errRef)
		}
	}
}
