package sim_test

// The bit-identity contract of the batched core: every lane of
// sim.RunBatch must return exactly the Result the naive refsim oracle
// returns for the same config. sim.Run is a one-lane RunBatch, so the
// oracle is the only independent loop to compare against. These tests
// run whole scheme matrices as single batches (heterogeneous configs,
// shared tasks), ragged batches whose lanes finish at wildly different
// cycles, timeouts, batch size 1, and the allocation profile of the
// batched steady state.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/refsim"
	"vliwmt/internal/sim"
)

// runBatchAgainstRef runs every config through RunBatch in one batch
// and through refsim individually, requiring deeply equal Results lane
// by lane.
func runBatchAgainstRef(t *testing.T, cfgs []sim.Config, tasks []sim.Task) {
	t.Helper()
	batch, err := sim.RunBatch(cfgs, tasks)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if len(batch) != len(cfgs) {
		t.Fatalf("RunBatch returned %d results for %d configs", len(batch), len(cfgs))
	}
	for i, cfg := range cfgs {
		ref, err := refsim.Run(cfg, tasks)
		if err != nil {
			t.Fatalf("lane %d: refsim failed: %v", i, err)
		}
		if !reflect.DeepEqual(batch[i], ref) {
			t.Fatalf("lane %d (%s): batch diverged from refsim\n batch: %+v\n ref:   %+v",
				i, cfg.Scheme, batch[i], ref)
		}
	}
}

// ports resolves a scheme's port count for test configs.
func ports(t testing.TB, scheme string) int {
	t.Helper()
	n, err := merge.Ports(scheme)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBatchDifferentialPaperMatrix is the batched acceptance matrix:
// all 16 paper schemes, the IMT/BMT baselines and a custom tree run as
// ONE heterogeneous batch per (memory model, seed) cell — contexts,
// selectors and fast-path eligibility all differ across lanes — and every
// lane must match the refsim oracle bit for bit.
func TestBatchDifferentialPaperMatrix(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)
	schemes := append(merge.PaperSchemes4(), "IMT", "BMT", "C(S(T0,T1),T2,T3)")
	for _, perfect := range []bool{true, false} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("perfect=%v/seed=%d", perfect, seed), func(t *testing.T) {
				cfgs := make([]sim.Config, 0, len(schemes))
				for _, scheme := range schemes {
					cfg := sim.DefaultConfig()
					cfg.Scheme = scheme
					cfg.Contexts = ports(t, scheme)
					cfg.PerfectMemory = perfect
					cfg.InstrLimit = 1_500
					cfg.TimesliceCycles = 700
					cfg.Seed = seed
					cfgs = append(cfgs, cfg)
				}
				runBatchAgainstRef(t, cfgs, tasks)
			})
		}
	}
}

// TestBatchRagged covers lanes that finish at very different cycles:
// instruction budgets spanning 30x, different timeslices, fixed and
// rotating priority, single-context lanes, and mixed perfect/realistic
// memory in the same batch. Early-finishing lanes leave the batch while
// others keep running; late lanes must be unaffected.
func TestBatchRagged(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)
	cfgs := []sim.Config{}
	for i, scheme := range []string{"3SSS", "2SC3", "BMT", "IMT", "C4", "3CCC"} {
		cfg := sim.DefaultConfig()
		cfg.Scheme = scheme
		cfg.Contexts = ports(t, scheme)
		if scheme == "IMT" || scheme == "BMT" {
			cfg.Contexts = 4
		}
		cfg.InstrLimit = int64(100 * (1 + i*6)) // 100 .. 3100
		cfg.TimesliceCycles = int64(300 + 97*i)
		cfg.FixedPriority = i%2 == 1
		cfg.PerfectMemory = i%3 == 0
		cfg.Seed = uint64(i + 1)
		if !cfg.PerfectMemory {
			cfg.DCache = cache.Config{Size: 4 << 10, LineSize: 64, Ways: 2, MissPenalty: 40 * i}
		}
		cfgs = append(cfgs, cfg)
	}
	// A single-context multitasking lane rides along.
	st := sim.DefaultConfig()
	st.Scheme = ""
	st.Contexts = 1
	st.InstrLimit = 900
	st.TimesliceCycles = 400
	st.Seed = 9
	cfgs = append(cfgs, st)
	runBatchAgainstRef(t, cfgs, tasks)
}

// TestBatchTimeout pins the MaxCycles clamp inside a batch: lanes that
// can never retire their budget must report the same truncated cycle
// count and TimedOut flag as the oracle, while a normal lane in the
// same batch finishes untouched.
func TestBatchTimeout(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)[:4]
	stuck := sim.DefaultConfig()
	stuck.Scheme = "3CCC"
	stuck.InstrLimit = 1 << 40 // unreachable
	stuck.MaxCycles = 3_000
	stuck.DCache = cache.Config{Size: 1 << 10, LineSize: 64, Ways: 1, MissPenalty: 500}

	ok := sim.DefaultConfig()
	ok.Scheme = "3SSS"
	ok.InstrLimit = 1_000
	runBatchAgainstRef(t, []sim.Config{stuck, ok, stuck}, tasks)
}

// TestBatchSizeOne: a batch of one is what sim.Run executes and what the
// sweep engine emits for singleton shape groups; it must match the
// oracle exactly too, and sim.Run must return that same lane.
func TestBatchSizeOne(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)
	cfg := sim.DefaultConfig()
	cfg.Scheme = "2SC3"
	cfg.InstrLimit = 1_200
	cfg.TimesliceCycles = 500
	runBatchAgainstRef(t, []sim.Config{cfg}, tasks)
	batch, err := sim.RunBatch([]sim.Config{cfg}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sim.Run(cfg, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run, batch[0]) {
		t.Fatalf("sim.Run differs from its one-lane batch\n run:   %+v\n batch: %+v", run, batch[0])
	}
}

// TestBatchEmpty pins the trivial edges: no configs is an empty
// success, no tasks is an error.
func TestBatchEmpty(t *testing.T) {
	res, err := sim.RunBatch(nil, diffTasks(t, isa.Default()))
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
	cfg := sim.DefaultConfig()
	if _, err := sim.RunBatch([]sim.Config{cfg}, nil); err == nil {
		t.Fatal("batch with no tasks accepted")
	}
}

// TestBatchRandomConfigs fuzzes heterogeneous batches: random lane
// counts, schemes, contexts, budgets, seeds and cache geometries, all
// sharing one task list, each batch checked lane-for-lane against the
// oracle.
func TestBatchRandomConfigs(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)
	r := rand.New(rand.NewSource(1213))
	schemes := []string{"3SSS", "3CCC", "2SC3", "2SS", "2CS", "C4", "1S", "IMT", "BMT", "S(C(T3,T1),C(T2,T0))"}
	iters := 10
	if testing.Short() {
		iters = 4
	}
	for i := 0; i < iters; i++ {
		n := 2 + r.Intn(9)
		cfgs := make([]sim.Config, 0, n)
		for j := 0; j < n; j++ {
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
			cfgs = append(cfgs, cfg)
		}
		t.Run(fmt.Sprintf("%02d_n%d", i, len(cfgs)), func(t *testing.T) {
			runBatchAgainstRef(t, cfgs, tasks)
		})
	}
}

// TestBatchSteadyStateZeroAllocs extends the zero-allocs/cycle
// invariant to the batched path: a batch pays a fixed setup cost
// (lanes, SoA backing, plans, packed dictionary), after which allocations
// must not grow with simulated cycles.
func TestBatchSteadyStateZeroAllocs(t *testing.T) {
	m := isa.Default()
	tasks := diffTasks(t, m)[:4]
	measure := func(instrs int64) float64 {
		cfgs := make([]sim.Config, 6)
		for i := range cfgs {
			cfg := sim.DefaultConfig()
			cfg.Scheme = []string{"2SC3", "3SSS", "C4"}[i%3]
			cfg.InstrLimit = instrs
			cfg.TimesliceCycles = 1_000
			cfg.Seed = uint64(i + 1)
			cfg.DCache = cache.Config{Size: 8 << 10, LineSize: 64, Ways: 2, MissPenalty: 20}
			cfgs[i] = cfg
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := sim.RunBatch(cfgs, tasks); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(2_000)
	long := measure(12_000)
	if long > short {
		t.Errorf("allocations grow with cycles: %v at 2k instrs, %v at 12k", short, long)
	}
}
