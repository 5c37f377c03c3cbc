package sim_test

// RunBatch is a loop over Run, kept for the benchmark harness's probe.
// Run's bit-identity with the refsim oracle is the differential suite's
// job (diff_test.go, burst_test.go, conformance_test.go); this file
// pins only the loop's own contract: each config's Result is Run's, in
// config order, an invalid config fails the batch with an error naming
// its index, no configs is an empty success and no tasks an error.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/sim"
)

// ports resolves a scheme's port count for test configs.
func ports(t testing.TB, scheme string) int {
	t.Helper()
	n, err := merge.Ports(scheme)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// runBatchAgainstRun runs every config through one RunBatch call and
// through Run individually, requiring one Result per config, in config
// order, deeply equal to Run's.
func runBatchAgainstRun(t *testing.T, cfgs []sim.Config, tasks []sim.Task) {
	t.Helper()
	batch, err := sim.RunBatch(cfgs, tasks)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if len(batch) != len(cfgs) {
		t.Fatalf("RunBatch returned %d results for %d configs", len(batch), len(cfgs))
	}
	for i, cfg := range cfgs {
		run, err := sim.Run(cfg, tasks)
		if err != nil {
			t.Fatalf("config %d: Run failed: %v", i, err)
		}
		if !reflect.DeepEqual(batch[i], run) {
			t.Errorf("result %d (%s) is not Run's\n batch: %+v\n run:   %+v", i, cfg.Scheme, batch[i], run)
		}
	}
}

// TestBatchDifferentialPaperMatrix runs the paper matrix (all 16
// schemes, the IMT/BMT baselines and a custom tree) as one
// heterogeneous batch per (memory model, seed) cell; every result must
// be Run's for its config, in config order.
func TestBatchDifferentialPaperMatrix(t *testing.T) {
	tasks := diffTasks(t, isa.Default())
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
				runBatchAgainstRun(t, cfgs, tasks)
			})
		}
	}
}

// TestBatchSizeOne: a batch of one returns exactly Run's Result.
func TestBatchSizeOne(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Scheme = "2SC3"
	cfg.InstrLimit = 1_200
	cfg.TimesliceCycles = 500
	runBatchAgainstRun(t, []sim.Config{cfg}, diffTasks(t, isa.Default()))
}

// TestBatchEmpty pins the trivial edges: no configs is an empty
// success, no tasks is an error.
func TestBatchEmpty(t *testing.T) {
	res, err := sim.RunBatch(nil, diffTasks(t, isa.Default()))
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}
	if _, err := sim.RunBatch([]sim.Config{sim.DefaultConfig()}, nil); err == nil {
		t.Fatal("batch with no tasks accepted")
	}
}

// TestRunBatchContract: an invalid config fails the batch with an error
// naming its index.
func TestRunBatchContract(t *testing.T) {
	tasks := diffTasks(t, isa.Default())
	var cfgs []sim.Config
	for i, scheme := range []string{"2SC3", "IMT", "3SSS"} {
		cfg := sim.DefaultConfig()
		cfg.Scheme = scheme
		cfg.InstrLimit = int64(500 + 400*i)
		cfg.TimesliceCycles = 300
		cfg.Seed = uint64(i + 1)
		cfgs = append(cfgs, cfg)
	}
	runBatchAgainstRun(t, cfgs, tasks)

	cfgs[1].InstrLimit = 0
	if _, err := sim.RunBatch(cfgs, tasks); err == nil || !strings.Contains(err.Error(), "lane 1") {
		t.Errorf("invalid config 1: error %v does not name its index", err)
	}
}
