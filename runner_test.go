package vliwmt_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vliwmt"
	"vliwmt/internal/server"
)

func runnerTestGrid() vliwmt.Grid {
	return vliwmt.Grid{
		Schemes:    []string{"2SC3", "3SSS"},
		Mixes:      []string{"LLHH", "HHHH"},
		InstrLimit: 5_000,
		Seed:       7,
	}
}

// resultKey renders every deterministic field of a result; Elapsed is
// deliberately excluded (the only wall-clock field).
func resultKey(t *testing.T, r vliwmt.SweepResult) string {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("job %d (%s): %v", r.Index, r.Job.Describe(), r.Err)
	}
	return fmt.Sprintf("%d %s seed=%d cycles=%d instrs=%d ops=%d ipc=%.12f hist=%v ic=%+v dc=%+v",
		r.Index, r.Job.Label, r.Job.Seed, r.Res.Cycles, r.Res.Instrs, r.Res.Ops, r.Res.IPC,
		r.Res.MergeHist, r.Res.ICache, r.Res.DCache)
}

func sweepKeys(t *testing.T, results []vliwmt.SweepResult) []string {
	t.Helper()
	keys := make([]string, len(results))
	for i, r := range results {
		keys[i] = resultKey(t, r)
	}
	return keys
}

// TestRunnerSharesCompileCacheAcrossCalls checks the session contract:
// repeated RunMix and Sweep calls on one Runner compile each
// (benchmark, machine) kernel exactly once, and results are identical
// to the top-level functions.
func TestRunnerSharesCompileCacheAcrossCalls(t *testing.T) {
	r := vliwmt.NewRunner()
	cfg := vliwmt.DefaultConfig()
	cfg.Scheme = "2SC3"
	cfg.InstrLimit = 5_000
	cfg.TimesliceCycles = 1_000

	first, err := r.RunMix(cfg, "LLHH")
	if err != nil {
		t.Fatal(err)
	}
	compiles, _ := r.Cache().Stats()
	if compiles == 0 || compiles > 4 {
		t.Fatalf("first RunMix compiled %d kernels, want 1..4", compiles)
	}
	second, err := r.RunMix(cfg, "LLHH")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := r.Cache().Stats(); again != compiles {
		t.Errorf("second RunMix recompiled: %d -> %d", compiles, again)
	}
	if first.IPC != second.IPC || first.Cycles != second.Cycles {
		t.Errorf("cached compile changed the simulation: %v vs %v", first.IPC, second.IPC)
	}

	// The top-level wrapper produces the identical result.
	top, err := vliwmt.RunMix(cfg, "LLHH")
	if err != nil {
		t.Fatal(err)
	}
	if top.IPC != first.IPC || top.Cycles != first.Cycles {
		t.Errorf("top-level RunMix differs from Runner.RunMix: %v vs %v", top.IPC, first.IPC)
	}

	// A Sweep on the same Runner reuses the kernels RunMix compiled.
	if _, err := r.Sweep(context.Background(), vliwmt.Grid{
		Schemes: []string{"2SC3"}, Mixes: []string{"LLHH"}, InstrLimit: 2_000,
	}); err != nil {
		t.Fatal(err)
	}
	if again, _ := r.Cache().Stats(); again != compiles {
		t.Errorf("Sweep after RunMix recompiled: %d -> %d", compiles, again)
	}
}

// TestRunnerSeedPolicy checks WithSeed fills only grids that left Seed
// zero.
func TestRunnerSeedPolicy(t *testing.T) {
	r := vliwmt.NewRunner(vliwmt.WithSeed(99))
	g := vliwmt.Grid{Schemes: []string{"1S"}, Mixes: []string{"LLHH"}, InstrLimit: 1_000, SharedSeed: true}
	results, err := r.Sweep(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Job.Seed != 99 {
		t.Errorf("default seed not applied: %d", results[0].Job.Seed)
	}
	g.Seed = 3
	results, err = r.Sweep(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Job.Seed != 3 {
		t.Errorf("explicit seed overridden: %d", results[0].Job.Seed)
	}
}

// TestRunnerResultStoreServesRepeats checks result persistence across
// Runner lifetimes: a second Runner pointed at the same store serves
// the identical sweep from disk — per job, without compiling or
// simulating — with every result marked Cached and the original
// elapsed times replayed. Generated ("genmix:") workloads cache
// exactly like Table 2 mixes: their canonical names are in the key, so
// a warm sweep over them regenerates and simulates nothing either.
func TestRunnerResultStoreServesRepeats(t *testing.T) {
	genmix := runnerTestGrid()
	genmix.Mixes = []string{"genmix:LLHH:s1", "genmix:HHHH:s3"}
	for _, tc := range []struct {
		name string
		base vliwmt.Grid
	}{{"table2", runnerTestGrid()}, {"genmix", genmix}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			g := tc.base

			first := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
			a, err := first.Sweep(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range a {
				if r.Cached {
					t.Errorf("cold job %s claims to be cached", r.Job.Describe())
				}
			}
			if st := first.Store().Stats(); st.Puts != int64(len(a)) || st.Hits != 0 {
				t.Errorf("cold sweep store stats: %+v, want %d puts, 0 hits", st, len(a))
			}

			var replayed int
			second := vliwmt.NewRunner(
				vliwmt.WithResultStore(dir),
				vliwmt.WithProgress(func(done, total int, r vliwmt.SweepResult) { replayed++ }),
			)
			b, err := second.Sweep(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			if compiles, _ := second.Cache().Stats(); compiles != 0 {
				t.Errorf("disk-served sweep compiled %d kernels, want 0", compiles)
			}
			if st := second.Store().Stats(); st.Hits != int64(len(a)) || st.Misses != 0 {
				t.Errorf("warm sweep store stats: %+v, want %d hits, 0 misses", st, len(a))
			}
			if replayed != len(a) {
				t.Errorf("progress made %d calls, want %d", replayed, len(a))
			}
			if !reflect.DeepEqual(sweepKeys(t, a), sweepKeys(t, b)) {
				t.Error("disk-served results differ from the original run")
			}
			for i, r := range b {
				if !r.Cached {
					t.Errorf("warm job %s not marked cached", r.Job.Describe())
				}
				if r.Elapsed != a[i].Elapsed {
					t.Errorf("warm job %s elapsed %v, want the cold run's %v replayed", r.Job.Describe(), r.Elapsed, a[i].Elapsed)
				}
			}

			// A different seed is a different experiment and simulates afresh.
			g.Seed = 8
			if _, err := second.Sweep(context.Background(), g); err != nil {
				t.Fatal(err)
			}
			if compiles, _ := second.Cache().Stats(); compiles == 0 {
				t.Error("different-seed sweep was wrongly served from disk")
			}

			// A partial overlap re-simulates only the new jobs: the same grid
			// with one extra mix serves the old jobs from disk.
			g = tc.base
			g.Mixes = append(slices.Clone(tc.base.Mixes), "LLLL")
			third := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
			c, err := third.Sweep(context.Background(), g)
			if err != nil {
				t.Fatal(err)
			}
			var cached int
			for _, r := range c {
				if r.Cached {
					cached++
				}
			}
			if cached != len(a) {
				t.Errorf("overlapping sweep reused %d jobs, want %d", cached, len(a))
			}
		})
	}
}

// TestClientSweepMatchesInProcess runs the acceptance criterion
// in-process: the same grid through vliwmt.Client against a live
// server and through vliwmt.Sweep must agree on every deterministic
// field, at several worker counts, with progress streamed to the
// client.
func TestClientSweepMatchesInProcess(t *testing.T) {
	g := runnerTestGrid()
	local, err := vliwmt.Sweep(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sweepKeys(t, local)

	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := vliwmt.NewClient(ts.URL)
	if err := client.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var progress int
		remote, err := client.Sweep(context.Background(), g, &vliwmt.SweepOptions{
			Workers: workers,
			Progress: func(done, total int, r vliwmt.SweepResult) {
				progress++
				if total != len(local) {
					t.Errorf("progress total %d, want %d", total, len(local))
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if progress != len(local) {
			t.Errorf("workers=%d: %d progress events, want %d", workers, progress, len(local))
		}
		if got := sweepKeys(t, remote); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: remote sweep differs from in-process:\n%s\nvs\n%s",
				workers, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}

	// Explicit job sets travel too.
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	remote, err := client.SweepJobs(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepKeys(t, remote); !reflect.DeepEqual(got, want) {
		t.Error("SweepJobs over the wire differs from in-process")
	}
}

// TestClientRejectsBadGrid checks server-side validation surfaces as a
// descriptive client error.
func TestClientRejectsBadGrid(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := vliwmt.NewClient(ts.URL)
	_, err := client.Sweep(context.Background(), vliwmt.Grid{Schemes: []string{"bogus!"}}, nil)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("bad scheme error not surfaced: %v", err)
	}
}
