package vliwmt_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vliwmt"
)

var update = flag.Bool("update", false, "rewrite the golden corpora in testdata/golden")

// goldenJobs crosses mixes × schemes × both memory models on the
// paper's default machine, at a budget scaled down so a corpus
// replays in seconds while still exercising every merge control, the
// OS scheduler and both cache configurations.
func goldenJobs(t *testing.T, mixes, schemes []string) []vliwmt.SweepJob {
	t.Helper()
	var jobs []vliwmt.SweepJob
	for _, mixName := range mixes {
		mix, err := vliwmt.MixByName(mixName)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range schemes {
			for _, perfect := range []bool{false, true} {
				mem := "real"
				if perfect {
					mem = "perfect"
				}
				jobs = append(jobs, vliwmt.SweepJob{
					Label:           mixName + "/" + scheme + "/" + mem,
					Scheme:          scheme,
					Benchmarks:      append([]string(nil), mix.Members[:]...),
					Machine:         vliwmt.DefaultMachine(),
					ICache:          vliwmt.DefaultCache(),
					DCache:          vliwmt.DefaultCache(),
					PerfectMemory:   perfect,
					InstrLimit:      20_000,
					TimesliceCycles: 1_000,
					Seed:            1,
				})
			}
		}
	}
	return jobs
}

// TestGoldenCorpora is the golden conformance gate. It sweeps each
// corpus's job set and compares the exact bytes WriteSnapshot writes
// with the committed file under testdata/golden, so a changed metric,
// a missing or extra job and a formatting drift all fail it. On a
// mismatch it prints the per-metric deltas against the committed
// snapshot. After an intentional behaviour change, bless the new
// numbers with `make golden` (which runs this test with -update) and
// review the diff before committing: every changed metric is a
// deliberate claim that the new numbers are right.
//
// corpus.json holds the sixteen paper schemes plus IMT/BMT on the
// LLHH mix. generated.json holds three generated mixes under six
// schemes; its jobs name benchmarks by canonical "gen:" names, so it
// pins the workload generator as well as the simulator, and a
// generator change that moves it also means every existing "gen:" name
// now denotes a different kernel (say so in the commit).
func TestGoldenCorpora(t *testing.T) {
	cases := []struct {
		file    string
		mixes   []string
		schemes []string
		check   func(t *testing.T, snap vliwmt.ResultSnapshot)
	}{
		{"corpus.json", []string{"LLHH"}, append(vliwmt.Schemes(), "IMT", "BMT"), checkPaperCoverage},
		{"generated.json", []string{"genmix:LLHH:s1", "genmix:LMMH:s2", "genmix:HHHH:s3"},
			[]string{"2SC3", "3SSS", "2SS", "C4", "IMT", "BMT"}, checkGeneratedCoverage},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			results, err := vliwmt.SweepJobs(context.Background(), goldenJobs(t, tc.mixes, tc.schemes), nil)
			if err != nil {
				t.Fatal(err)
			}
			live, err := vliwmt.SnapshotResults(results)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, live)

			path := filepath.Join("testdata", "golden", tc.file)
			out := filepath.Join(t.TempDir(), tc.file)
			if *update {
				out = path
			}
			if err := vliwmt.WriteSnapshot(out, live); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (bless the corpus with `make golden`)", err)
			}
			if bytes.Equal(got, want) {
				return
			}
			golden, err := vliwmt.LoadSnapshot(path)
			if err != nil {
				t.Fatalf("%s differs from this build's snapshot and does not load: %v (bless intentional changes with `make golden`)", path, err)
			}
			var b strings.Builder
			d := vliwmt.DiffSnapshots(golden, live)
			d.WriteText(&b, "golden", "this build")
			if d.Clean() {
				b.WriteString("every value agrees, so the file's bytes drifted: regenerate it rather than editing it by hand\n")
			}
			t.Fatalf("%s diverges from this build's snapshot (bless intentional changes with `make golden`):\n%s", path, b.String())
		})
	}
}

// checkPaperCoverage asserts the classic corpus's promise: every paper
// scheme and both baselines, each under both memory models.
func checkPaperCoverage(t *testing.T, snap vliwmt.ResultSnapshot) {
	covered := map[string]map[bool]bool{}
	for _, e := range snap.Entries {
		j := e.Job
		if covered[j.Scheme] == nil {
			covered[j.Scheme] = map[bool]bool{}
		}
		covered[j.Scheme][j.PerfectMemory] = true
	}
	for _, s := range append(vliwmt.Schemes(), "IMT", "BMT") {
		if !covered[s][false] || !covered[s][true] {
			t.Errorf("corpus does not cover scheme %s under both memory models", s)
		}
	}
}

// checkGeneratedCoverage asserts the generated corpus's promise: every
// job draws its threads from generated benchmarks, under both memory
// models.
func checkGeneratedCoverage(t *testing.T, snap vliwmt.ResultSnapshot) {
	perMem := map[bool]int{}
	for _, e := range snap.Entries {
		perMem[e.Job.PerfectMemory]++
		for _, b := range e.Job.Benchmarks {
			if !strings.HasPrefix(b, "gen:") {
				t.Errorf("entry %s carries non-generated benchmark %q", e.Key, b)
			}
		}
	}
	if perMem[false] == 0 || perMem[true] == 0 {
		t.Errorf("corpus memory-model coverage %v; want both real and perfect", perMem)
	}
}
