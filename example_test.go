package vliwmt_test

import (
	"context"
	"fmt"
	"sort"

	"vliwmt"
)

// ExampleDescribeScheme shows how scheme names map to merge trees.
func ExampleDescribeScheme() {
	for _, s := range []string{"1S", "3CCC", "2SC3", "2CC"} {
		desc, _ := vliwmt.DescribeScheme(s)
		fmt.Printf("%s = %s\n", s, desc)
	}
	// Output:
	// 1S = S(T0,T1)
	// 3CCC = C(C(C(T0,T1),T2),T3)
	// 2SC3 = C3(S(T0,T1),T2,T3)
	// 2CC = C(C(T0,T1),C(T2,T3))
}

// ExampleCost compares merge-control hardware costs.
func ExampleCost() {
	m := vliwmt.DefaultMachine()
	a, _ := vliwmt.Cost(m, "3SSS")
	b, _ := vliwmt.Cost(m, "2SC3")
	fmt.Printf("2SC3 costs %.0f%% of 3SSS's transistors\n",
		100*float64(b.Transistors)/float64(a.Transistors))
	// Output:
	// 2SC3 costs 33% of 3SSS's transistors
}

// ExampleRunMix simulates the paper's LLHH workload (two low-ILP and
// two high-ILP programs) under three merge controls: 4-thread SMT
// (3SSS), 4-thread CSMT (3CCC) and the paper's recommended hybrid 2SC3,
// which merges two threads at operation level and folds two more in at
// cluster level.
func ExampleRunMix() {
	cfg := vliwmt.DefaultConfig()
	cfg.InstrLimit = 20_000
	cfg.TimesliceCycles = 1_000
	for _, scheme := range []string{"3SSS", "3CCC", "2SC3"} {
		cfg.Scheme = scheme
		res, err := vliwmt.RunMix(cfg, "LLHH")
		if err != nil {
			panic(err)
		}
		c, err := vliwmt.Cost(cfg.Machine, scheme)
		if err != nil {
			panic(err)
		}
		desc, _ := vliwmt.DescribeScheme(scheme)
		fmt.Printf("%-4s %-20s IPC %.3f  %4d transistors  %2d gate delays\n",
			scheme, desc, res.IPC, c.Transistors, c.GateDelays)
	}
	// Output:
	// 3SSS S(S(S(T0,T1),T2),T3) IPC 5.457  7656 transistors  34 gate delays
	// 3CCC C(C(C(T0,T1),T2),T3) IPC 4.528   330 transistors  19 gate delays
	// 2SC3 C3(S(T0,T1),T2,T3)   IPC 4.839  2512 transistors  18 gate delays
}

// ExampleNewKernel authors a workload with the kernel builder, a FIR
// filter over a streaming signal, compiles it at several unroll
// factors, and measures how four copies of it share the machine under
// CSMT, hybrid and SMT merging.
func ExampleNewKernel() {
	// One tap loop: load a sample, multiply-accumulate across four taps
	// (two parallel pairs), store the result. The accumulator is a
	// loop-carried dependence, so unrolling keeps it serial while the
	// tap products parallelise.
	k := vliwmt.NewKernel("fir4")
	signal := k.Stream(vliwmt.MemStream{Kind: vliwmt.StreamStride, Base: 0x100000, Stride: 4, Footprint: 1 << 20})
	out := k.Stream(vliwmt.MemStream{Kind: vliwmt.StreamStride, Base: 0x200000, Stride: 4, Footprint: 1 << 20})
	k.Block("taps")
	x := k.Load(signal)
	s0 := k.ALU(k.Mul(x), k.Mul(x))
	s1 := k.ALU(k.Mul(x), k.Mul(x))
	acc := k.ALU(s0, s1)
	k.Carry(acc, acc)
	k.Store(out, acc)
	k.Branch("taps", vliwmt.Loop(256))
	kern, err := k.Finish()
	if err != nil {
		panic(err)
	}
	m := vliwmt.DefaultMachine()
	var prog *vliwmt.Program
	for _, unroll := range []int{1, 2, 4} {
		if prog, err = vliwmt.CompileKernel(kern, m, unroll); err != nil {
			panic(err)
		}
		ipcp, err := vliwmt.SingleThreadIPC(m, prog, 20_000, true)
		if err != nil {
			panic(err)
		}
		fmt.Printf("unroll %d: %2d instrs, %.2f ops/instr, IPCp %.2f\n",
			unroll, prog.NumInstructions(), prog.StaticOpsPerInstr(), ipcp)
	}

	cfg := vliwmt.DefaultConfig()
	cfg.InstrLimit = 20_000
	tasks := make([]vliwmt.Task, 4)
	for i := range tasks {
		tasks[i] = vliwmt.Task{Name: fmt.Sprintf("fir%d", i), Prog: prog}
	}
	for _, scheme := range []string{"3CCC", "2SC3", "3SSS"} {
		cfg.Scheme = scheme
		res, err := vliwmt.Run(cfg, tasks)
		if err != nil {
			panic(err)
		}
		fmt.Printf("four fir4 under %s: IPC %.3f\n", scheme, res.IPC)
	}
	// Output:
	// unroll 1:  8 instrs, 1.25 ops/instr, IPCp 1.00
	// unroll 2:  9 instrs, 2.33 ops/instr, IPCp 1.91
	// unroll 4: 11 instrs, 3.91 ops/instr, IPCp 3.32
	// four fir4 under 3CCC: IPC 4.106
	// four fir4 under 2SC3: IPC 5.294
	// four fir4 under 3SSS: IPC 5.648
}

// ExampleParseScheme designs a merge tree that is not one of the
// paper's sixteen, writes it as a tree expression and runs it against
// the paper's recommendation. The expression works anywhere a scheme
// name does; the typed Config.Merge runs the same tree under a label
// of its own, bit-identically.
func ExampleParseScheme() {
	// Merge T0..T2 in one serial cluster-level (CSMT) node, then fold
	// T3 in at operation level (SMT).
	const asym4 = "S(C(T0,T1,T2),T3)"
	asym, err := vliwmt.ParseScheme(asym4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %s\n", asym, asym.Describe())

	cfg := vliwmt.DefaultConfig()
	cfg.InstrLimit = 20_000
	cfg.TimesliceCycles = 1_000
	for _, scheme := range []string{"2SC3", asym4} {
		cfg.Scheme = scheme
		res, err := vliwmt.RunMix(cfg, "LLHH")
		if err != nil {
			panic(err)
		}
		c, err := vliwmt.Cost(cfg.Machine, scheme)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-17s IPC %.3f  %d transistors  %d gate delays\n", scheme, res.IPC, c.Transistors, c.GateDelays)
	}

	cfg.Scheme, cfg.Merge = "", asym.WithName("asym4")
	typed, err := vliwmt.RunMix(cfg, "LLHH")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-17s IPC %.3f\n", cfg.Merge.Name(), typed.IPC)
	// Output:
	// S(C(T0,T1,T2),T3): 2-level cascade (CSMT, SMT) merging 4 threads
	// 2SC3              IPC 4.839  2512 transistors  18 gate delays
	// S(C(T0,T1,T2),T3) IPC 5.092  3132 transistors  25 gate delays
	// asym4             IPC 5.092
}

// ExampleSweep sweeps the paper's full evaluation grid, all sixteen
// merging schemes on all nine workload mixes, on every core, and ranks
// the schemes by their average IPC in Figure 10 style.
func ExampleSweep() {
	grid := vliwmt.Grid{
		// Empty Schemes and Mixes select the paper's sixteen schemes
		// and nine mixes.
		InstrLimit: 10_000,
		Seed:       1,
		// One seed for every job: the ranking compares schemes, and
		// per-job derived seeds would perturb it.
		SharedSeed: true,
	}
	reported := 0
	opts := &vliwmt.SweepOptions{
		// Progress calls are serialised, one per finished job.
		Progress: func(done, total int, r vliwmt.SweepResult) { reported++ },
	}
	results, err := vliwmt.Sweep(context.Background(), grid, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d jobs, %d progress reports\n", len(results), reported)

	sum := map[string]float64{}
	var schemes []string
	for _, r := range results {
		ipc, err := r.IPC()
		if err != nil {
			panic(err)
		}
		if _, ok := sum[r.Job.Scheme]; !ok {
			schemes = append(schemes, r.Job.Scheme)
		}
		sum[r.Job.Scheme] += ipc
	}
	sort.SliceStable(schemes, func(i, j int) bool { return sum[schemes[i]] > sum[schemes[j]] })
	for _, s := range schemes {
		fmt.Printf("%-4s %.3f\n", s, sum[s]/9)
	}
	// Output:
	// 144 jobs, 144 progress reports
	// 3SSS 5.054
	// 2SS  4.959
	// 3CSS 4.928
	// 3SSC 4.880
	// 3SCS 4.833
	// 2CS  4.772
	// 3CSC 4.680
	// 2C3S 4.613
	// 3CCS 4.613
	// 2SC3 4.560
	// 3SCC 4.560
	// 2SC  4.552
	// C4   4.140
	// 3CCC 4.140
	// 2CC  4.112
	// 1S   3.263
}

// ExampleRun is the paper's motivating deployment: an embedded media
// server, where high-ILP signal processing (imaging pipeline,
// colour-space conversion) shares the machine with low-ILP control code
// (compression, protocol handling). It picks the merging scheme that
// maximises throughput on the server's job mix within a transistor
// budget for the merge control.
func ExampleRun() {
	const budget = 3000
	machine := vliwmt.DefaultMachine()
	tasks, err := vliwmt.NewCompileCache().Tasks([]string{"imgpipe", "colorspace", "bzip2", "gsmencode"}, machine)
	if err != nil {
		panic(err)
	}
	cfg := vliwmt.DefaultConfig()
	cfg.Machine = machine
	cfg.InstrLimit = 20_000
	cfg.TimesliceCycles = 1_000
	type design struct {
		scheme      string
		ipc         float64
		transistors int
	}
	var best, top design
	for _, scheme := range vliwmt.Schemes() {
		c, err := vliwmt.Cost(machine, scheme)
		if err != nil {
			panic(err)
		}
		// Contexts is unset, so each scheme runs on as many contexts as
		// it has ports: 1S merges two, which then multitask the four jobs.
		cfg.Scheme = scheme
		res, err := vliwmt.Run(cfg, tasks)
		if err != nil {
			panic(err)
		}
		d := design{scheme, res.IPC, c.Transistors}
		if d.ipc > top.ipc {
			top = d
		}
		if d.transistors <= budget && d.ipc > best.ipc {
			best = d
		}
	}
	fmt.Printf("within %d transistors: %s, IPC %.3f in %d transistors\n", budget, best.scheme, best.ipc, best.transistors)
	fmt.Printf("unconstrained: %s, IPC %.3f (%+.1f%%) in %d transistors (%.1fx)\n", top.scheme, top.ipc,
		100*(top.ipc-best.ipc)/best.ipc, top.transistors, float64(top.transistors)/float64(best.transistors))
	// Output:
	// within 3000 transistors: 3CSC, IPC 7.036 in 2862 transistors
	// unconstrained: 3SSS, IPC 7.825 (+11.2%) in 7656 transistors (2.7x)
}
