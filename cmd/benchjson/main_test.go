package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: vliwmt
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulator-8    236   9986496 ns/op   4500277 cycles/s   66016 B/op   50 allocs/op
BenchmarkMergeSelect-8  40176591   56.56 ns/op   0 B/op   0 allocs/op
PASS
ok   vliwmt  18.418s
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Package != "vliwmt" || rep.CPU == "" {
		t.Errorf("header not parsed: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	one := func(v float64) Stat { return Stat{Median: v, Min: v, Max: v} }
	sim := rep.Benchmarks[0]
	if sim.Name != "BenchmarkSimulator" || sim.Count != 1 || sim.Iterations != 236 || sim.NsPerOp != one(9986496) {
		t.Errorf("simulator line wrong: %+v", sim)
	}
	if sim.Metrics["cycles/s"] != one(4500277) {
		t.Errorf("custom metric wrong: %+v", sim.Metrics)
	}
	if sim.BytesPerOp == nil || *sim.BytesPerOp != one(66016) || sim.AllocsPerOp == nil || *sim.AllocsPerOp != one(50) {
		t.Errorf("benchmem pair wrong: %+v", sim)
	}
	ms := rep.Benchmarks[1]
	if ms.NsPerOp != one(56.56) || *ms.AllocsPerOp != one(0) {
		t.Errorf("merge-select line wrong: %+v", ms)
	}
}

// TestAggregateRepeats feeds interleaved `-count` repeats and checks
// that each benchmark becomes one entry, in first-appearance order,
// carrying the run count, the summed iterations and the median, min
// and max of every unit (the middle pair's mean for an even count).
func TestAggregateRepeats(t *testing.T) {
	out := `BenchmarkA-2   10   30 ns/op   5 allocs/op   100 jobs/s
BenchmarkB-2    4   7 ns/op
BenchmarkA-2   20   10 ns/op   5 allocs/op   300 jobs/s
BenchmarkB-2    6   9 ns/op
BenchmarkA-2   30   20 ns/op   7 allocs/op   200 jobs/s
BenchmarkB-2    5   2 ns/op
BenchmarkB-2    5   4 ns/op
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	a, b := rep.Benchmarks[0], rep.Benchmarks[1]
	if a.Name != "BenchmarkA" || a.Count != 3 || a.Iterations != 60 {
		t.Errorf("A header = %+v, want 3 runs of 60 iterations", a)
	}
	if want := (Stat{Median: 20, Min: 10, Max: 30}); a.NsPerOp != want {
		t.Errorf("A ns/op = %+v, want %+v", a.NsPerOp, want)
	}
	if want := (Stat{Median: 5, Min: 5, Max: 7}); a.AllocsPerOp == nil || *a.AllocsPerOp != want {
		t.Errorf("A allocs/op = %+v, want %+v", a.AllocsPerOp, want)
	}
	if want := (Stat{Median: 200, Min: 100, Max: 300}); a.Metrics["jobs/s"] != want {
		t.Errorf("A jobs/s = %+v, want %+v", a.Metrics["jobs/s"], want)
	}
	if a.BytesPerOp != nil {
		t.Errorf("A reported B/op it never measured: %+v", *a.BytesPerOp)
	}
	if want := (Stat{Median: 5.5, Min: 2, Max: 9}); b.Name != "BenchmarkB" || b.Count != 4 || b.NsPerOp != want {
		t.Errorf("B = %+v, want 4 runs with ns/op %+v", b, want)
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",
		"BenchmarkX notanumber 12 ns/op",
		"BenchmarkX 10 nan.x ns/op",
	} {
		if _, err := parseLine(line); err == nil {
			t.Errorf("parseLine(%q) succeeded", line)
		}
	}
}
