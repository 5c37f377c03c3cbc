package main

import (
	"bytes"
	"context"
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

// TestWarmStoreZeroSimulations is the acceptance criterion of the
// persistent result store: repeating the Table 1 grid against a warm
// store performs zero simulations — every job is a store hit, nothing
// is compiled — and the emitted CSV is byte-identical to the cold
// run's, elapsed_sec column included (cached results replay the
// original times).
func TestWarmStoreZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	jobs := table1Jobs(10_000)

	cold := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
	a, err := cold.SweepJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Store().Stats(); st.Hits != 0 || st.Misses != int64(len(jobs)) || st.Puts != int64(len(jobs)) {
		t.Fatalf("cold run store stats %+v, want %d misses and puts", st, len(jobs))
	}
	coldCSV := csvOf(t, a)

	// A fresh Runner with a fresh compile cache: any simulation would
	// have to compile first, so zero compiles proves zero simulations.
	warm := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
	b, err := warm.SweepJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Store().Stats(); st.Hits != int64(len(jobs)) || st.Misses != 0 || st.Puts != 0 {
		t.Errorf("warm run store stats %+v, want %d hits and nothing else", st, len(jobs))
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
