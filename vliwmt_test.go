package vliwmt_test

import (
	"context"
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vliwmt"
)

// TestInternalPackagesDoNotImportRoot: the public façade is built on
// the internal packages, never the other way round, so no non-test
// file under internal/ imports the root package.
func TestInternalPackagesDoNotImportRoot(t *testing.T) {
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		if slices.Contains(pkg.Imports, "vliwmt") {
			t.Errorf("%s imports the root package vliwmt", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func fastConfig(contexts int, scheme string) vliwmt.Config {
	cfg := vliwmt.DefaultConfig()
	cfg.Contexts = contexts
	cfg.Scheme = scheme
	cfg.InstrLimit = 40_000
	cfg.TimesliceCycles = 2_000
	return cfg
}

func TestRunMixEndToEnd(t *testing.T) {
	res, err := vliwmt.RunMix(fastConfig(4, "2SC3"), "LLHH")
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 1 {
		t.Errorf("LLHH under 2SC3 IPC = %.3f, expected multithreaded speedup", res.IPC)
	}
	if len(res.Threads) != 4 {
		t.Errorf("got %d thread stats", len(res.Threads))
	}
	if _, err := vliwmt.RunMix(fastConfig(4, "2SC3"), "ZZZZ"); err == nil {
		t.Error("RunMix accepted unknown mix")
	}
	if _, err := vliwmt.RunMix(fastConfig(4, "NOPE"), "LLHH"); err == nil {
		t.Error("RunMix accepted unknown scheme")
	}
}

func TestSchemesMetadata(t *testing.T) {
	schemes := vliwmt.Schemes()
	if len(schemes) != 16 {
		t.Fatalf("got %d schemes", len(schemes))
	}
	for _, s := range schemes {
		desc, err := vliwmt.DescribeScheme(s)
		if err != nil {
			t.Errorf("DescribeScheme(%s): %v", s, err)
		}
		if !strings.Contains(desc, "T0") {
			t.Errorf("DescribeScheme(%s) = %q", s, desc)
		}
		sch, err := vliwmt.ParseScheme(s)
		if err != nil {
			t.Errorf("ParseScheme(%s): %v", s, err)
			continue
		}
		if n := sch.Ports(); n != 2 && n != 4 {
			t.Errorf("ParseScheme(%s).Ports() = %d", s, n)
		}
	}
	if desc, _ := vliwmt.DescribeScheme("2SC3"); desc != "C3(S(T0,T1),T2,T3)" {
		t.Errorf("2SC3 tree = %q", desc)
	}
}

func TestCostAPI(t *testing.T) {
	m := vliwmt.DefaultMachine()
	c2sc3, err := vliwmt.Cost(m, "2SC3")
	if err != nil {
		t.Fatal(err)
	}
	c3sss, err := vliwmt.Cost(m, "3SSS")
	if err != nil {
		t.Fatal(err)
	}
	if c2sc3.Transistors >= c3sss.Transistors {
		t.Errorf("2SC3 (%d tr) not cheaper than 3SSS (%d tr)", c2sc3.Transistors, c3sss.Transistors)
	}
	pts, err := vliwmt.CostScaling(m, 2, 4)
	if err != nil || len(pts) != 3 {
		t.Fatalf("CostScaling: %v, %d points", err, len(pts))
	}
}

func TestCustomKernelFlow(t *testing.T) {
	k := vliwmt.NewKernel("axpy")
	x := k.Stream(vliwmt.MemStream{Kind: vliwmt.StreamStride, Stride: 8, Footprint: 1 << 16})
	k.Block("body")
	v := k.Load(x)
	w := k.Mul(v)
	k.Store(x, k.ALU(w))
	k.Branch("body", vliwmt.Loop(32))
	kern, err := k.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := vliwmt.DefaultMachine()
	prog, err := vliwmt.CompileKernel(kern, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	ipcP, err := vliwmt.SingleThreadIPC(m, prog, 20_000, true)
	if err != nil {
		t.Fatal(err)
	}
	ipcR, err := vliwmt.SingleThreadIPC(m, prog, 20_000, false)
	if err != nil {
		t.Fatal(err)
	}
	if ipcR > ipcP+1e-9 {
		t.Errorf("IPCr %.3f above IPCp %.3f", ipcR, ipcP)
	}
	if ipcP <= 0 {
		t.Error("no progress")
	}
}

func TestCompileBenchmarkAndDisassemble(t *testing.T) {
	m := vliwmt.DefaultMachine()
	p, err := vliwmt.CompileBenchmark("idct", m)
	if err != nil {
		t.Fatal(err)
	}
	if text := p.Disassemble(); !strings.Contains(text, "program idct") {
		t.Error("disassembly missing header")
	}
	if _, err := vliwmt.CompileBenchmark("nonesuch", m); err == nil {
		t.Error("CompileBenchmark accepted unknown name")
	}
}

func TestBenchmarksAndMixes(t *testing.T) {
	if len(vliwmt.Benchmarks()) != 12 {
		t.Error("not 12 benchmarks")
	}
	if len(vliwmt.Mixes()) != 9 {
		t.Error("not 9 mixes")
	}
}

func TestSweepEndToEnd(t *testing.T) {
	grid := vliwmt.Grid{
		Schemes:    []string{"2SC3", "3SSS"},
		Mixes:      []string{"LLHH", "MMMM"},
		InstrLimit: 10_000,
		Seed:       1,
	}
	var calls int
	results, err := vliwmt.Sweep(context.Background(), grid,
		&vliwmt.SweepOptions{Workers: 4, Progress: func(done, total int, r vliwmt.SweepResult) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 || calls != 4 {
		t.Fatalf("got %d results, %d progress calls, want 4 and 4", len(results), calls)
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d: aggregation not ordered", i, r.Index)
		}
		ipc, err := r.IPC()
		if err != nil {
			t.Fatal(err)
		}
		if ipc <= 0 {
			t.Errorf("%s: non-positive IPC", r.Job.Label)
		}
	}
	if _, err := vliwmt.Sweep(context.Background(), vliwmt.Grid{Mixes: []string{"nonesuch"}}, nil); err == nil {
		t.Error("Sweep accepted an unknown mix")
	}
}
