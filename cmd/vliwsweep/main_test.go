package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"vliwmt"
)

// table1Jobs builds the paper's Table 1 grid as an explicit job set:
// every benchmark alone on the default machine, under real caches
// (IPCr) and perfect memory (IPCp), at a scaled-down budget.
func table1Jobs(instr int64) []vliwmt.SweepJob {
	var jobs []vliwmt.SweepJob
	for _, b := range vliwmt.Benchmarks() {
		for _, perfect := range []bool{false, true} {
			mem := "real"
			if perfect {
				mem = "perfect"
			}
			jobs = append(jobs, vliwmt.SweepJob{
				Label:           b.Name + "/" + mem,
				Benchmarks:      []string{b.Name},
				Contexts:        1,
				Machine:         vliwmt.DefaultMachine(),
				ICache:          vliwmt.DefaultCache(),
				DCache:          vliwmt.DefaultCache(),
				PerfectMemory:   perfect,
				InstrLimit:      instr,
				TimesliceCycles: 1_000,
				Seed:            1,
			})
		}
	}
	return jobs
}

func csvOf(t *testing.T, results []vliwmt.SweepResult) []byte {
	t.Helper()
	rows := rowsFrom(results, func(err error) { t.Fatal(err) })
	if len(rows) != len(results) {
		t.Fatalf("%d rows from %d results", len(rows), len(results))
	}
	var buf bytes.Buffer
	if err := writeCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// storeDelta returns a function reporting how far the process-wide
// store hit, miss and put counters have moved since the call.
func storeDelta() func() (hits, misses, puts int64) {
	before := vliwmt.Metrics()
	return func() (hits, misses, puts int64) {
		after := vliwmt.Metrics()
		d := func(name string) int64 { return after.Counter(name) - before.Counter(name) }
		return d("store_hits_total"), d("store_misses_total"), d("store_puts_total")
	}
}

// TestWarmStoreZeroSimulations is the acceptance criterion of the
// persistent result store: repeating the Table 1 grid against a warm
// store performs zero simulations — every job is a store hit, nothing
// is compiled — and the emitted CSV is byte-identical to the cold
// run's, elapsed_sec column included (cached results replay the
// original times).
func TestWarmStoreZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	jobs := table1Jobs(10_000)

	store := storeDelta()
	cold := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
	a, err := cold.SweepJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, puts := store(); hits != 0 || misses != int64(len(jobs)) || puts != int64(len(jobs)) {
		t.Fatalf("cold run: %d store hits, %d misses, %d puts; want 0 and %d misses and puts", hits, misses, puts, len(jobs))
	}
	coldCSV := csvOf(t, a)

	// A fresh Runner with a fresh compile cache: any simulation would
	// have to compile first, so zero compiles proves zero simulations.
	store = storeDelta()
	warm := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
	b, err := warm.SweepJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, puts := store(); hits != int64(len(jobs)) || misses != 0 || puts != 0 {
		t.Errorf("warm run: %d store hits, %d misses, %d puts; want %d hits and nothing else", hits, misses, puts, len(jobs))
	}
	if compiles, _ := warm.Cache().Stats(); compiles != 0 {
		t.Errorf("warm run compiled %d kernels, want 0 (zero simulations)", compiles)
	}
	for _, r := range b {
		if !r.Cached {
			t.Errorf("warm job %s not served from the store", r.Job.Describe())
		}
	}
	if warmCSV := csvOf(t, b); !bytes.Equal(coldCSV, warmCSV) {
		t.Errorf("warm CSV differs from cold CSV:\ncold:\n%s\nwarm:\n%s", coldCSV, warmCSV)
	}
}

// TestUnlabelledJobMix: a job without a label prints the mix part of
// its description (first benchmark plus the count of the others), not
// an empty cell.
func TestUnlabelledJobMix(t *testing.T) {
	job := vliwmt.SweepJob{
		Scheme:     "1S",
		Benchmarks: []string{"mcf", "bzip2"},
		Machine:    vliwmt.DefaultMachine(),
		ICache:     vliwmt.DefaultCache(),
		DCache:     vliwmt.DefaultCache(),
		InstrLimit: 5_000,
		Seed:       1,
	}
	results, err := vliwmt.NewRunner().SweepJobs(context.Background(), []vliwmt.SweepJob{job})
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsFrom(results, func(err error) { t.Fatal(err) })
	if len(rows) != 1 || rows[0].Mix != "mcf+1" || rows[0].Scheme != "1S" {
		t.Errorf("rows %+v, want one row with mix mcf+1 and scheme 1S", rows)
	}
}

// TestReadJobsGridThenJobs: a -jobs document carrying both a grid and
// explicit jobs yields the grid's jobs first, then the explicit ones,
// which is what the server runs for the same document.
func TestReadJobsGridThenJobs(t *testing.T) {
	doc := `{"version":3,"grid":{"schemes":["2SC3"],"mixes":["LLHH"],"instr_limit":5000,"seed":7},
		"jobs":[{"label":"solo/mcf","benchmarks":["mcf"],"contexts":1,"instr_limit":5000,"seed":3}]}`
	name := filepath.Join(t.TempDir(), "req.json")
	if err := os.WriteFile(name, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, err := readJobs(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].Label != "LLHH/2SC3" || jobs[1].Label != "solo/mcf" {
		t.Errorf("jobs %+v, want LLHH/2SC3 then solo/mcf", jobs)
	}
}
