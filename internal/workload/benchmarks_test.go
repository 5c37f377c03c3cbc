package workload

import (
	"math"
	"testing"

	"vliwmt/internal/isa"
	"vliwmt/internal/sim"
)

// measure runs the benchmark single-threaded and returns (IPCr, IPCp).
func measure(t *testing.T, b Benchmark, instrs int64) (float64, float64) {
	t.Helper()
	prog, err := b.Compile(isa.Default())
	if err != nil {
		t.Fatalf("%s: compile: %v", b.Name, err)
	}
	run := func(perfect bool) float64 {
		cfg := sim.DefaultConfig()
		cfg.Contexts = 1
		cfg.InstrLimit = instrs
		cfg.PerfectMemory = perfect
		res, err := sim.Run(cfg, []sim.Task{{Name: b.Name, Prog: prog}})
		if err != nil {
			t.Fatalf("%s: run: %v", b.Name, err)
		}
		if res.TimedOut {
			t.Fatalf("%s: timed out", b.Name)
		}
		return res.IPC
	}
	return run(false), run(true)
}

// TestTable1Calibration verifies that every synthetic kernel lands near
// its Table 1 target: IPCp and IPCr within 20% of the paper's values.
// (cmd/paperfigs -table1 regenerates the full table; see the README's
// "Quickstart: paperfigs" section.)
func TestTable1Calibration(t *testing.T) {
	// 120k instructions converge in well under a second; shorter budgets
	// leave the caches cold and IPCr far from the paper's values, so
	// -short keeps the full budget.
	instrs := int64(120_000)
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ipcr, ipcp := measure(t, b, instrs)
			t.Logf("%-11s measured IPCr=%.2f IPCp=%.2f (paper %.2f / %.2f)",
				b.Name, ipcr, ipcp, b.PaperIPCr, b.PaperIPCp)
			if rel := math.Abs(ipcp-b.PaperIPCp) / b.PaperIPCp; rel > 0.20 {
				t.Errorf("IPCp %.3f deviates %.0f%% from paper %.2f", ipcp, rel*100, b.PaperIPCp)
			}
			if rel := math.Abs(ipcr-b.PaperIPCr) / b.PaperIPCr; rel > 0.20 {
				t.Errorf("IPCr %.3f deviates %.0f%% from paper %.2f", ipcr, rel*100, b.PaperIPCr)
			}
			if ipcr > ipcp+1e-9 {
				t.Errorf("IPCr %.3f above IPCp %.3f", ipcr, ipcp)
			}
		})
	}
}

// TestILPClassOrdering: within the measured kernels, every H benchmark
// out-runs every M benchmark, which out-runs every L benchmark (by IPCp),
// matching the paper's classification.
func TestILPClassOrdering(t *testing.T) {
	instrs := int64(60_000)
	best := map[ILPClass]float64{Low: 0, Medium: 0, High: 0}
	worst := map[ILPClass]float64{Low: 99, Medium: 99, High: 99}
	for _, b := range Benchmarks() {
		_, ipcp := measure(t, b, instrs)
		if ipcp > best[b.Class] {
			best[b.Class] = ipcp
		}
		if ipcp < worst[b.Class] {
			worst[b.Class] = ipcp
		}
	}
	if best[Low] >= worst[Medium] {
		t.Errorf("highest L IPCp %.2f overlaps lowest M %.2f", best[Low], worst[Medium])
	}
	if best[Medium] >= worst[High] {
		t.Errorf("highest M IPCp %.2f overlaps lowest H %.2f", best[Medium], worst[High])
	}
}

func TestBenchmarkLookup(t *testing.T) {
	if len(Benchmarks()) != 12 {
		t.Fatalf("got %d benchmarks, want 12", len(Benchmarks()))
	}
	b, err := ByName("idct")
	if err != nil || b.Name != "idct" {
		t.Errorf("ByName(idct) = %v, %v", b.Name, err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Error("ByName accepted unknown benchmark")
	}
}

func TestMixesMatchTable2(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 9 {
		t.Fatalf("got %d mixes, want 9", len(mixes))
	}
	classOf := map[string]ILPClass{}
	for _, b := range Benchmarks() {
		classOf[b.Name] = b.Class
	}
	for _, m := range mixes {
		for i, name := range m.Members {
			c, ok := classOf[name]
			if !ok {
				t.Errorf("mix %s member %s unknown", m.Name, name)
				continue
			}
			if want := m.Name[i]; want != c.String()[0] {
				t.Errorf("mix %s member %d (%s) is class %s, name says %c", m.Name, i, name, c, want)
			}
		}
	}
	if _, err := MixByName("LLHH"); err != nil {
		t.Error(err)
	}
	if _, err := MixByName("XXXX"); err == nil {
		t.Error("MixByName accepted unknown mix")
	}
}

func TestAllBenchmarksCompileAndValidate(t *testing.T) {
	m := isa.Default()
	for _, b := range Benchmarks() {
		p, err := b.Compile(m)
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		if err := p.Validate(&m); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if p.StaticOpsPerInstr() <= 0 {
			t.Errorf("%s: empty program", b.Name)
		}
	}
}

// TestBenchmarkCompileDeterminism: compiling a benchmark twice yields
// byte-identical code (required for reproducible experiments).
func TestBenchmarkCompileDeterminism(t *testing.T) {
	m := isa.Default()
	for _, b := range Benchmarks() {
		p1, err := b.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := b.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		if p1.Disassemble() != p2.Disassemble() {
			t.Errorf("%s: compilation not deterministic", b.Name)
		}
	}
}

// TestBenchmarkCodeFootprints: every kernel's code fits the 64KB ICache
// comfortably (the paper's benchmarks run near 100% ICache hit rates; the
// x264 kernel is the largest by design).
func TestBenchmarkCodeFootprints(t *testing.T) {
	m := isa.Default()
	var largest string
	var largestSize uint64
	for _, b := range Benchmarks() {
		p, err := b.Compile(m)
		if err != nil {
			t.Fatal(err)
		}
		if p.CodeSize == 0 {
			t.Errorf("%s: zero code size", b.Name)
		}
		if p.CodeSize > 64<<10 {
			t.Errorf("%s: code %d bytes exceeds the ICache", b.Name, p.CodeSize)
		}
		if p.CodeSize > largestSize {
			largest, largestSize = b.Name, p.CodeSize
		}
	}
	t.Logf("largest kernel: %s (%d bytes)", largest, largestSize)
}

// TestMemoryBoundBenchmarksMiss: the benchmarks the paper characterises
// as memory bound (mcf, cjpeg, colorspace) must show real DCache miss
// traffic, and the resident ones (gsmencode, g721) must not.
func TestMemoryBoundBenchmarksMiss(t *testing.T) {
	missRate := func(name string) float64 {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := b.Compile(isa.Default())
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig()
		cfg.Contexts = 1
		cfg.InstrLimit = 200_000 // long enough that cold-start misses wash out
		res, err := sim.Run(cfg, []sim.Task{{Name: name, Prog: prog}})
		if err != nil {
			t.Fatal(err)
		}
		return res.DCache.MissRate()
	}
	for _, name := range []string{"mcf", "cjpeg", "colorspace"} {
		if r := missRate(name); r < 0.01 {
			t.Errorf("%s: DCache miss rate %.4f, expected memory-bound behaviour", name, r)
		}
	}
	for _, name := range []string{"gsmencode", "g721encode"} {
		if r := missRate(name); r > 0.02 {
			t.Errorf("%s: DCache miss rate %.4f, expected cache-resident behaviour", name, r)
		}
	}
}
