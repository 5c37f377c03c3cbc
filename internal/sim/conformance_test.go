package sim_test

// The generative conformance harness: random profiles from the
// synthetic workload generator swept through the batched cycle loop
// and the naive reference oracle, asserting bit-identical Results lane
// by lane across every paper scheme, the
// IMT/BMT baselines and both memory models. Where diff_test.go pins
// the contract on the 13 hand-built kernels, this harness samples the
// whole generator parameter space, so simulator/optimization bugs
// that only manifest on unusual kernel shapes (degenerate widths,
// branch-dense blocks, chase-heavy streams) still hit the oracle.

import (
	"fmt"
	"reflect"
	"testing"

	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/refsim"
	"vliwmt/internal/sim"
	"vliwmt/internal/wgen"
	"vliwmt/internal/workload"
)

// conformanceSchemes is the full merge matrix: the paper's sixteen
// Figure 9 schemes plus the IMT and BMT baselines.
func conformanceSchemes() []string {
	return append(merge.PaperSchemes4(), "IMT", "BMT")
}

// genTasks compiles the four members of a generated mix.
func genTasks(t testing.TB, m isa.Machine, members [4]string) []sim.Task {
	t.Helper()
	tasks := make([]sim.Task, 0, len(members))
	for _, name := range members {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.Compile(m)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		tasks = append(tasks, sim.Task{Name: name, Prog: p})
	}
	return tasks
}

// TestGenerativeConformance sweeps random generated 4-thread mixes
// through the full scheme x memory-model matrix with sim.Run and
// refsim.Run, and requires them to agree exactly config by config.
// The full run covers 56 random
// profiles (14 mixes x 4 members), satisfying the >=50-profile
// acceptance bar; -short keeps a 16-profile smoke.
func TestGenerativeConformance(t *testing.T) {
	iters := 14
	if testing.Short() {
		iters = 4
	}
	m := isa.Default()
	schemes := conformanceSchemes()
	combos := []string{"LLLL", "LLMH", "LMMH", "LLHH", "MMHH", "MHHH", "HHHH"}
	rng := wgen.NewRand(2009)

	profiles := 0
	for iter := 0; iter < iters; iter++ {
		combo := combos[iter%len(combos)]
		mixSeed := rng.Uint64()
		mixName, err := wgen.MixName(combo, mixSeed)
		if err != nil {
			t.Fatal(err)
		}
		mix, err := workload.MixByName(mixName)
		if err != nil {
			t.Fatal(err)
		}
		tasks := genTasks(t, m, mix.Members)
		profiles += len(mix.Members)
		simSeed := rng.Uint64()

		// The full scheme x memory matrix on one task list: scheme,
		// contexts and memory model vary per config.
		var cfgs []sim.Config
		var labels []string
		for _, scheme := range schemes {
			for _, perfect := range []bool{true, false} {
				cfg := sim.DefaultConfig()
				cfg.Scheme = scheme
				cfg.Contexts = ports(t, scheme)
				cfg.PerfectMemory = perfect
				cfg.InstrLimit = 800
				cfg.TimesliceCycles = 400
				cfg.Seed = simSeed
				cfgs = append(cfgs, cfg)
				labels = append(labels, fmt.Sprintf("%s/perfect=%v", scheme, perfect))
			}
		}

		t.Run(fmt.Sprintf("%02d_%s", iter, mixName), func(t *testing.T) {
			for i, cfg := range cfgs {
				fast, err := sim.Run(cfg, tasks)
				if err != nil {
					t.Fatalf("%s: sim.Run: %v", labels[i], err)
				}
				ref, err := refsim.Run(cfg, tasks)
				if err != nil {
					t.Fatalf("%s: refsim.Run: %v", labels[i], err)
				}
				if !reflect.DeepEqual(fast, ref) {
					t.Fatalf("%s: sim.Run diverges from refsim:\n optimized: %+v\n reference: %+v",
						labels[i], fast, ref)
				}
			}
		})
	}
	if !testing.Short() && profiles < 50 {
		t.Fatalf("harness covered %d random profiles, acceptance bar is 50", profiles)
	}
}

// TestGenerativeConformanceSingleKernels drives individual random
// profiles (rather than mixes) through sim.Run-vs-oracle comparison with
// more tasks than contexts, so generated kernels also exercise the
// timeslice scheduling path.
func TestGenerativeConformanceSingleKernels(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	m := isa.Default()
	rng := wgen.NewRand(71)
	for iter := 0; iter < iters; iter++ {
		p := wgen.RandomProfile(rng, wgen.Class(iter%3))
		seed := rng.Uint64()
		name := wgen.BenchmarkName(p, seed)
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := b.Compile(m)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		// Six copies of the kernel: more tasks than the 4 contexts.
		var tasks []sim.Task
		for i := 0; i < 6; i++ {
			tasks = append(tasks, sim.Task{Name: fmt.Sprintf("%s#%d", name, i), Prog: prog})
		}
		cfg := sim.DefaultConfig()
		cfg.Scheme = []string{"2SC3", "C4", "3SSS", "IMT"}[iter%4]
		cfg.Contexts = ports(t, cfg.Scheme)
		cfg.PerfectMemory = iter%2 == 0
		cfg.InstrLimit = 700
		cfg.TimesliceCycles = 300
		cfg.Seed = rng.Uint64()
		t.Run(fmt.Sprintf("%02d_%s", iter, cfg.Scheme), func(t *testing.T) {
			fast, errFast := sim.Run(cfg, tasks)
			ref, errRef := refsim.Run(cfg, tasks)
			if (errFast == nil) != (errRef == nil) {
				t.Fatalf("error divergence: sim %v, refsim %v", errFast, errRef)
			}
			if errFast == nil && !reflect.DeepEqual(fast, ref) {
				t.Fatalf("divergence on %s:\n optimized: %+v\n reference: %+v", name, fast, ref)
			}
		})
	}
}
