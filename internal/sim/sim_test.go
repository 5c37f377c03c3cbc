package sim

import (
	"testing"

	"vliwmt/internal/cache"
	"vliwmt/internal/compiler"
	"vliwmt/internal/ir"
	"vliwmt/internal/isa"
	"vliwmt/internal/program"
)

// kernel compiles a simple test kernel with the given per-iteration shape.
type kernelSpec struct {
	chains    int // independent ALU chains
	chainLen  int
	loads     int
	footprint uint64
	random    bool
	trip      int
}

func buildKernel(t *testing.T, name string, spec kernelSpec) *program.Program {
	t.Helper()
	b := ir.NewBuilder(name)
	var s int
	if spec.loads > 0 {
		kind := ir.StreamStride
		if spec.random {
			kind = ir.StreamRandom
		}
		fp := spec.footprint
		if fp == 0 {
			fp = 4096
		}
		s = b.Stream(ir.MemStream{Kind: kind, Stride: 8, Footprint: fp})
	}
	b.Block("body")
	for i := 0; i < spec.chains; i++ {
		v := b.ALU()
		b.Chain(v, spec.chainLen-1)
	}
	for i := 0; i < spec.loads; i++ {
		b.Load(s)
	}
	trip := spec.trip
	if trip == 0 {
		trip = 64
	}
	b.Branch("body", ir.Loop(trip))
	p, err := compiler.Compile(b.MustFinish(), compiler.Options{Machine: isa.Default()})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return p
}

// serialTask models low-ILP code the way real programs exhibit it: a
// sequence of blocks, each a short dependence chain, which BUG-style
// assignment spreads across clusters (one chain per block per cluster).
func serialTask(t *testing.T) Task {
	t.Helper()
	b := ir.NewBuilder("serial")
	for i := 0; i < 4; i++ {
		b.Block(string(rune('a' + i)))
		v := b.ALU()
		b.Chain(v, 4)
	}
	p, err := compiler.Compile(b.MustFinish(), compiler.Options{Machine: isa.Default()})
	if err != nil {
		t.Fatalf("compile serial: %v", err)
	}
	return Task{Name: "serial", Prog: p}
}

func wideTask(t *testing.T) Task {
	return Task{Name: "wide", Prog: buildKernel(t, "wide", kernelSpec{chains: 12, chainLen: 8})}
}

func runOne(t *testing.T, cfg Config, tasks ...Task) *Result {
	t.Helper()
	res, err := Run(cfg, tasks)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TimedOut {
		t.Fatalf("run timed out after %d cycles", res.Cycles)
	}
	return res
}

func testConfig(contexts int, scheme string) Config {
	cfg := DefaultConfig()
	cfg.Contexts = contexts
	cfg.Scheme = scheme
	cfg.InstrLimit = 30_000
	cfg.TimesliceCycles = 10_000
	cfg.PerfectMemory = true
	return cfg
}

func TestSingleThreadSerialChainIPC(t *testing.T) {
	cfg := testConfig(1, "")
	res := runOne(t, cfg, serialTask(t))
	// A 20-op serial chain with a loop branch: the kernel is dependence
	// bound, so IPC must be near 1 (21 ops in ~22-23 cycles per iteration).
	if res.IPC < 0.8 || res.IPC > 1.2 {
		t.Errorf("serial chain IPC = %.3f, want about 1", res.IPC)
	}
}

func TestSingleThreadWideKernelIPC(t *testing.T) {
	cfg := testConfig(1, "")
	res := runOne(t, cfg, wideTask(t))
	// 96 independent ops per iteration on a 16-wide machine: high IPC.
	if res.IPC < 5 {
		t.Errorf("wide kernel IPC = %.3f, want > 5", res.IPC)
	}
}

func TestOpsAndInstrsAccounting(t *testing.T) {
	cfg := testConfig(1, "")
	res := runOne(t, cfg, serialTask(t))
	if res.Instrs == 0 || res.Ops == 0 {
		t.Fatal("no instructions retired")
	}
	var sumOps, sumInstrs int64
	for _, th := range res.Threads {
		sumOps += th.Ops
		sumInstrs += th.Instrs
	}
	if sumOps != res.Ops || sumInstrs != res.Instrs {
		t.Errorf("per-thread totals (%d ops, %d instrs) != run totals (%d, %d)",
			sumOps, sumInstrs, res.Ops, res.Instrs)
	}
	if got := float64(res.Ops) / float64(res.Cycles); got != res.IPC {
		t.Errorf("IPC field inconsistent: %f vs %f", res.IPC, got)
	}
}

func TestInstrLimitStopsRun(t *testing.T) {
	cfg := testConfig(1, "")
	cfg.InstrLimit = 1000
	res := runOne(t, cfg, serialTask(t))
	maxRetired := int64(0)
	for _, th := range res.Threads {
		if th.Instrs > maxRetired {
			maxRetired = th.Instrs
		}
	}
	if maxRetired != 1000 {
		t.Errorf("first thread retired %d instructions, want exactly 1000", maxRetired)
	}
}

func TestMultithreadingRecoversWaste(t *testing.T) {
	// Four serial threads on a 4-context CSMT machine: merging distinct
	// clusters should push throughput well above single-thread.
	single := runOne(t, testConfig(1, ""), serialTask(t))
	four := runOne(t, testConfig(4, "3CCC"),
		serialTask(t), serialTask(t), serialTask(t), serialTask(t))
	if four.IPC < 1.5*single.IPC {
		t.Errorf("4-thread CSMT IPC %.3f not well above single %.3f", four.IPC, single.IPC)
	}
}

func TestSMTBeatsOrMatchesCSMT(t *testing.T) {
	tasks := []Task{serialTask(t), wideTask(t), serialTask(t), wideTask(t)}
	smt := runOne(t, testConfig(4, "3SSS"), tasks...)
	csmt := runOne(t, testConfig(4, "3CCC"), tasks...)
	if smt.IPC+1e-9 < csmt.IPC {
		t.Errorf("SMT IPC %.3f below CSMT %.3f", smt.IPC, csmt.IPC)
	}
}

func TestFourThreadSMTBeatsTwoThread(t *testing.T) {
	two := runOne(t, testConfig(2, "1S"), serialTask(t), serialTask(t), serialTask(t), serialTask(t))
	four := runOne(t, testConfig(4, "3SSS"), serialTask(t), serialTask(t), serialTask(t), serialTask(t))
	if four.IPC <= two.IPC {
		t.Errorf("4-thread SMT IPC %.3f not above 2-thread %.3f", four.IPC, two.IPC)
	}
}

// TestSchemeGroupIdentities: schemes the paper reports as identical must
// produce identical cycle counts in full simulation.
func TestSchemeGroupIdentities(t *testing.T) {
	tasks := []Task{serialTask(t), wideTask(t), serialTask(t), wideTask(t)}
	pairs := [][2]string{{"C4", "3CCC"}, {"2SC3", "3SCC"}, {"2C3S", "3CCS"}}
	for _, pair := range pairs {
		a := runOne(t, testConfig(4, pair[0]), tasks...)
		b := runOne(t, testConfig(4, pair[1]), tasks...)
		if a.Cycles != b.Cycles || a.Ops != b.Ops {
			t.Errorf("%s vs %s: %d cycles/%d ops vs %d cycles/%d ops",
				pair[0], pair[1], a.Cycles, a.Ops, b.Cycles, b.Ops)
		}
	}
}

func TestDeterminism(t *testing.T) {
	tasks := []Task{serialTask(t), wideTask(t), serialTask(t), wideTask(t)}
	a := runOne(t, testConfig(4, "2SC3"), tasks...)
	b := runOne(t, testConfig(4, "2SC3"), tasks...)
	if a.Cycles != b.Cycles || a.Ops != b.Ops || a.IPC != b.IPC {
		t.Error("identical configurations diverged")
	}
	cfg := testConfig(4, "2SC3")
	cfg.Seed = 99
	c := runOne(t, cfg, tasks...)
	_ = c // different seed may or may not change results; must not crash
}

func TestMergeHistogramConsistent(t *testing.T) {
	tasks := []Task{serialTask(t), serialTask(t), serialTask(t), serialTask(t)}
	res := runOne(t, testConfig(4, "3SSS"), tasks...)
	var cycles, weighted int64
	for k, n := range res.MergeHist {
		cycles += n
		weighted += int64(k) * n
	}
	if cycles != res.Cycles {
		t.Errorf("merge histogram covers %d cycles of %d", cycles, res.Cycles)
	}
	if weighted != res.Instrs {
		t.Errorf("merge histogram weights %d instructions of %d", weighted, res.Instrs)
	}
}

func TestCacheMissesSlowExecution(t *testing.T) {
	spec := kernelSpec{chains: 2, chainLen: 4, loads: 4, footprint: 16 << 20, random: true}
	missTask := Task{Name: "missy", Prog: buildKernel(t, "missy", spec)}

	perfect := testConfig(1, "")
	perfect.InstrLimit = 20_000
	resPerfect := runOne(t, perfect, missTask)

	real := perfect
	real.PerfectMemory = false
	real.ICache = cache.DefaultConfig()
	real.DCache = cache.DefaultConfig()
	resReal := runOne(t, real, missTask)

	if resReal.IPC >= resPerfect.IPC {
		t.Errorf("cache misses did not reduce IPC: %.3f vs %.3f", resReal.IPC, resPerfect.IPC)
	}
	if resReal.DCache.Misses == 0 {
		t.Error("random 16MB footprint produced no data misses")
	}
	var stallMem int64
	for _, th := range resReal.Threads {
		stallMem += th.StallMem
	}
	if stallMem == 0 {
		t.Error("no memory stall cycles recorded")
	}
}

func TestBranchPenaltyCosts(t *testing.T) {
	// The same body once as an always-taken self-loop (pays the 2-cycle
	// squash every iteration) and once as a branchless wrap-around block.
	body := func(b *ir.Builder) {
		for i := 0; i < 4; i++ {
			v := b.ALU()
			b.Chain(v, 3)
		}
	}
	bb := ir.NewBuilder("branchy")
	bb.Block("body")
	body(bb)
	bb.Branch("body", ir.Always())
	pBranchy, err := compiler.Compile(bb.MustFinish(), compiler.Options{Machine: isa.Default()})
	if err != nil {
		t.Fatal(err)
	}
	bf := ir.NewBuilder("flat")
	bf.Block("body")
	body(bf)
	pFlat, err := compiler.Compile(bf.MustFinish(), compiler.Options{Machine: isa.Default()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(1, "")
	rBranchy := runOne(t, cfg, Task{Name: "branchy", Prog: pBranchy})
	rFlat := runOne(t, cfg, Task{Name: "flat", Prog: pFlat})
	if rBranchy.IPC >= rFlat.IPC {
		t.Errorf("taken-branch penalty not visible: branchy %.3f vs flat %.3f", rBranchy.IPC, rFlat.IPC)
	}
	var br int64
	for _, th := range rBranchy.Threads {
		br += th.StallBranch
	}
	if br == 0 {
		t.Error("no branch stall cycles recorded")
	}
}

func TestTimesliceScheduling(t *testing.T) {
	// Five tasks on one context: all make progress across timeslices.
	cfg := testConfig(1, "")
	cfg.InstrLimit = 20_000
	cfg.TimesliceCycles = 1_000
	tasks := []Task{
		serialTask(t), wideTask(t), serialTask(t), wideTask(t), serialTask(t),
	}
	res := runOne(t, cfg, tasks...)
	ran := 0
	for _, th := range res.Threads {
		if th.Instrs > 0 {
			ran++
		}
	}
	if ran < len(tasks) {
		t.Errorf("only %d of %d tasks ran under timeslicing", ran, len(tasks))
	}
}

func TestFixedPriorityStarvesLowPriority(t *testing.T) {
	// With fixed priority and all-dense threads (every instruction uses
	// every cluster), CSMT serves thread 0 only; rotation shares.
	dense := Task{Name: "dense", Prog: buildKernel(t, "dense", kernelSpec{chains: 16, chainLen: 8})}
	mk := func(fixed bool) *Result {
		cfg := testConfig(4, "3CCC")
		cfg.FixedPriority = fixed
		cfg.InstrLimit = 10_000
		return runOne(t, cfg, dense, dense, dense, dense)
	}
	fixed := mk(true)
	rotated := mk(false)
	minInstr := func(r *Result) int64 {
		m := r.Threads[0].Instrs
		for _, th := range r.Threads {
			if th.Instrs < m {
				m = th.Instrs
			}
		}
		return m
	}
	if minInstr(fixed)*4 > minInstr(rotated) {
		t.Errorf("fixed priority did not starve: min %d vs rotated %d", minInstr(fixed), minInstr(rotated))
	}
}

// TestPrepareDerivesContexts pins the one context-count rule sim and
// refsim share through Prepare: an unset Contexts is the scheme's port
// count, or 1 without a scheme, and an explicit count is kept.
func TestPrepareDerivesContexts(t *testing.T) {
	good := serialTask(t)
	for _, tc := range []struct {
		contexts int
		scheme   string
		want     int
	}{
		{0, "1S", 2},
		{0, "2SC3", 4},
		{0, "C(S(T0,T1),T2)", 3},
		{0, "", 1},
		{1, "1S", 1},
		{2, "1S", 2},
	} {
		cfg := testConfig(tc.contexts, tc.scheme)
		if got := cfg.EffectiveContexts(); got != tc.want {
			t.Errorf("Contexts %d, scheme %q: EffectiveContexts %d, want %d", tc.contexts, tc.scheme, got, tc.want)
		}
		s, err := Prepare(cfg, []Task{good})
		if err != nil {
			t.Fatalf("Contexts %d, scheme %q: %v", tc.contexts, tc.scheme, err)
		}
		if s.Config.Contexts != tc.want {
			t.Errorf("Contexts %d, scheme %q: prepared %d contexts, want %d", tc.contexts, tc.scheme, s.Config.Contexts, tc.want)
		}
	}
	if got := testConfig(0, "XYZ").EffectiveContexts(); got != 0 {
		t.Errorf("unresolvable scheme: EffectiveContexts %d, want 0", got)
	}
}

func TestRunValidation(t *testing.T) {
	good := serialTask(t)
	cases := []struct {
		name string
		cfg  Config
		ts   []Task
	}{
		{"no tasks", testConfig(1, ""), nil},
		{"negative contexts", func() Config { c := testConfig(1, ""); c.Contexts = -1; return c }(), []Task{good}},
		{"bad scheme", testConfig(4, "XYZ"), []Task{good, good, good, good}},
		{"port mismatch", testConfig(4, "1S"), []Task{good, good, good, good}},
		{"zero instr limit", func() Config { c := testConfig(1, ""); c.InstrLimit = 0; return c }(), []Task{good}},
		{"instr limit overflows the cycle bound", func() Config { c := testConfig(1, ""); c.InstrLimit = MaxInstrLimit + 1; return c }(), []Task{good}},
		{"nil program", testConfig(1, ""), []Task{{Name: "nil"}}},
		{"bad machine", func() Config { c := testConfig(1, ""); c.Machine.Clusters = 0; return c }(), []Task{good}},
		{"bad icache", func() Config {
			c := testConfig(1, "")
			c.PerfectMemory = false
			c.ICache = cache.Config{Size: 3}
			return c
		}(), []Task{good}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.cfg, tc.ts); err == nil {
			t.Errorf("%s: Run succeeded", tc.name)
		}
	}
	// The bound itself is valid, and its default cycle bound fits.
	cfg := testConfig(1, "")
	cfg.InstrLimit = MaxInstrLimit
	s, err := Prepare(cfg, []Task{good})
	if err != nil {
		t.Fatalf("Prepare rejected MaxInstrLimit: %v", err)
	}
	if s.Config.MaxCycles != 400*MaxInstrLimit || s.Config.MaxCycles <= 0 {
		t.Errorf("default MaxCycles = %d, want 400 × MaxInstrLimit", s.Config.MaxCycles)
	}
}

func TestMaxCyclesTimeout(t *testing.T) {
	cfg := testConfig(1, "")
	cfg.InstrLimit = 1 << 40 // unreachable
	cfg.MaxCycles = 5_000
	res, err := Run(cfg, []Task{serialTask(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("run did not report timeout")
	}
	if res.Cycles != 5_000 {
		t.Errorf("timed-out run simulated %d cycles, want 5000", res.Cycles)
	}
}
