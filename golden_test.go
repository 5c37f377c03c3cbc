package vliwmt_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"vliwmt"
)

// TestGoldenCorpus is the golden conformance gate: it replays the
// committed corpus (testdata/golden/corpus.json — the 16 paper schemes
// plus IMT/BMT, each under real caches and perfect memory) and fails
// on any bit-level divergence from the committed results. A failure
// means this change altered simulator output; if the change is
// intentional, bless a new baseline with `make golden` and commit the
// reviewed diff.
func TestGoldenCorpus(t *testing.T) {
	path := filepath.Join("testdata", "golden", "corpus.json")
	golden, err := vliwmt.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}

	// The corpus must keep its promised coverage: every paper scheme
	// and both baselines, each under both memory models.
	want := append(vliwmt.Schemes(), "IMT", "BMT")
	covered := map[string]map[bool]bool{}
	for _, e := range golden.Entries {
		j := e.Job
		if covered[j.Scheme] == nil {
			covered[j.Scheme] = map[bool]bool{}
		}
		covered[j.Scheme][j.PerfectMemory] = true
	}
	for _, s := range want {
		if !covered[s][false] || !covered[s][true] {
			t.Errorf("corpus does not cover scheme %s under both memory models", s)
		}
	}

	results, err := vliwmt.SweepJobs(context.Background(), golden.Jobs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	live, err := vliwmt.SnapshotResults(results)
	if err != nil {
		t.Fatal(err)
	}
	if d := vliwmt.DiffSnapshots(golden, live); !d.Clean() {
		var b strings.Builder
		d.WriteText(&b, "golden", "this build")
		t.Fatalf("simulator output diverges from the golden corpus (bless intentional changes with `make golden`):\n%s", b.String())
	}
}

// TestGeneratedGoldenCorpus replays the committed generated-workload
// corpus (testdata/golden/generated.json — three generated mixes, six
// schemes, both memory models). Its jobs name benchmarks by canonical
// "gen:" names, so a replay regenerates every kernel from scratch: a
// divergence means either the simulator or the workload generator
// changed behaviour. Both are blessed the same way (`make golden`),
// with the added duty for generator changes of noting in the commit
// that all existing "gen:" names now mean different kernels.
func TestGeneratedGoldenCorpus(t *testing.T) {
	path := filepath.Join("testdata", "golden", "generated.json")
	golden, err := vliwmt.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every job must draw its threads from generated benchmarks — the
	// point of this corpus — and cover both memory models.
	perMem := map[bool]int{}
	for _, e := range golden.Entries {
		j := e.Job
		perMem[j.PerfectMemory]++
		for _, b := range j.Benchmarks {
			if !strings.HasPrefix(b, "gen:") {
				t.Errorf("entry %s carries non-generated benchmark %q", e.Key, b)
			}
		}
	}
	if perMem[false] == 0 || perMem[true] == 0 {
		t.Errorf("corpus memory-model coverage %v; want both real and perfect", perMem)
	}

	results, err := vliwmt.SweepJobs(context.Background(), golden.Jobs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	live, err := vliwmt.SnapshotResults(results)
	if err != nil {
		t.Fatal(err)
	}
	if d := vliwmt.DiffSnapshots(golden, live); !d.Clean() {
		var b strings.Builder
		d.WriteText(&b, "golden", "this build")
		t.Fatalf("generated workloads diverge from the committed corpus (bless intentional simulator or generator changes with `make golden`):\n%s", b.String())
	}
}
