package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
)

// testGrid is a small but non-trivial sweep: 4 schemes x 3 mixes with a
// budget large enough to exercise the OS scheduler and caches.
func testGrid() Grid {
	return Grid{
		Schemes:    []string{"1S", "3CCC", "2SC3", "3SSS"},
		Mixes:      []string{"LLLL", "LLHH", "HHHH"},
		InstrLimit: 10_000,
		Seed:       7,
	}
}

// fingerprint renders every deterministic field of a result set; Elapsed
// is deliberately excluded.
func fingerprint(t *testing.T, results []Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d (%s): %v", r.Index, r.Job.Describe(), r.Err)
		}
		fmt.Fprintf(&b, "%d %s seed=%d cycles=%d instrs=%d ops=%d ipc=%.12f\n",
			r.Index, r.Job.Label, r.Job.Seed, r.Res.Cycles, r.Res.Instrs, r.Res.Ops, r.Res.IPC)
	}
	return b.String()
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 12 {
		t.Fatalf("got %d jobs, want 12", len(jobs))
	}
	var want string
	for _, workers := range []int{1, 4, 16} {
		results, err := New(workers).Run(context.Background(), jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := fingerprint(t, results)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d produced different results:\n%s\nvs workers=1:\n%s", workers, got, want)
		}
	}
}

func TestGridSeedModes(t *testing.T) {
	g := testGrid()
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[uint64]bool{}
	for _, j := range jobs {
		seeds[j.Seed] = true
	}
	if len(seeds) != len(jobs) {
		t.Errorf("derived seeds collide: %d distinct over %d jobs", len(seeds), len(jobs))
	}
	g.SharedSeed = true
	shared, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range shared {
		if j.Seed != 7 {
			t.Errorf("shared-seed job %s got seed %d, want 7", j.Label, j.Seed)
		}
	}
}

// TestSchemeIdentitiesUnderSharedSeed checks that the engine preserves
// the paper's functional identities (C4 == 3CCC) when jobs share a seed.
func TestSchemeIdentitiesUnderSharedSeed(t *testing.T) {
	g := Grid{
		Schemes:    []string{"C4", "3CCC"},
		Mixes:      []string{"LLHH"},
		InstrLimit: 10_000,
		Seed:       3,
		SharedSeed: true,
	}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	results, err := New(4).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	a, errA := results[0].IPC()
	b, errB := results[1].IPC()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a != b {
		t.Errorf("C4 (%.9f) and 3CCC (%.9f) differ under a shared seed", a, b)
	}
}

func TestCompileCacheMemoizes(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	e := New(8)
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	compiles, hits := e.Cache().Stats()
	// 3 mixes reference at most 12 distinct benchmarks; 12 jobs x 4
	// threads = 48 lookups in total.
	if compiles > 12 {
		t.Errorf("%d compilations, want at most one per distinct benchmark (12)", compiles)
	}
	if compiles+hits != 48 {
		t.Errorf("compiles+hits = %d, want 48 lookups", compiles+hits)
	}
	// A second sweep on the same engine is fully served from cache.
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	again, _ := e.Cache().Stats()
	if again != compiles {
		t.Errorf("second sweep recompiled: %d -> %d", compiles, again)
	}
}

func TestSetCacheSharesAcrossEngines(t *testing.T) {
	g := Grid{Schemes: []string{"3SSS"}, Mixes: []string{"LLLL"}, InstrLimit: 2_000}
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompileCache()
	for _, workers := range []int{1, 2} {
		e := New(workers)
		e.SetCache(c)
		if _, err := e.Run(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
	}
	compiles, _ := c.Stats()
	if compiles > 4 {
		t.Errorf("%d compilations across two engines, want at most the mix's 4 benchmarks", compiles)
	}
	if PoolSize(0) < 1 || PoolSize(3) != 3 {
		t.Errorf("PoolSize policy broken: %d, %d", PoolSize(0), PoolSize(3))
	}
}

func TestCancellationReturnsPartialResults(t *testing.T) {
	g := testGrid()
	g.InstrLimit = 2_000
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := New(2)
	e.SetProgress(func(done, total int, r Result) {
		if done == 2 {
			cancel()
		}
	})
	results, err := e.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	completed, skipped := 0, 0
	for _, r := range results {
		switch {
		case r.Err == nil && r.Res != nil:
			completed++
		case errors.Is(r.Err, context.Canceled):
			skipped++
		default:
			t.Errorf("job %d: unexpected state res=%v err=%v", r.Index, r.Res, r.Err)
		}
	}
	if completed < 2 {
		t.Errorf("%d completed jobs, want at least the 2 that triggered cancel", completed)
	}
	if skipped == 0 {
		t.Error("no job was skipped by cancellation")
	}
}

// TestCancellationIsJobGranular cancels a one-worker sweep of one
// 16-job shape from the progress callback after the third job: the
// job in flight finishes, and no further job is simulated.
func TestCancellationIsJobGranular(t *testing.T) {
	jobs, err := (Grid{Schemes: merge.PaperSchemes4(), Mixes: []string{"LLHH"}, InstrLimit: 5_000, Seed: 3}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 16 {
		t.Fatalf("got %d jobs, want 16", len(jobs))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := New(1)
	e.SetProgress(func(done, total int, r Result) {
		if done == 3 {
			cancel()
		}
	})
	results, err := e.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	completed, skipped := 0, 0
	for _, r := range results {
		switch {
		case r.Err == nil && r.Res != nil:
			completed++
		case r.Res == nil && errors.Is(r.Err, context.Canceled):
			skipped++
		default:
			t.Errorf("job %d: unexpected state res=%v err=%v", r.Index, r.Res, r.Err)
		}
	}
	if completed != 3 || skipped != 13 {
		t.Errorf("%d jobs completed and %d skipped, want 3 and 13", completed, skipped)
	}
}

func TestProgressSerialised(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	e := New(8)
	var seen []int
	e.SetProgress(func(done, total int, r Result) {
		if total != len(jobs) {
			t.Errorf("total = %d, want %d", total, len(jobs))
		}
		if r.Res == nil && r.Err == nil {
			t.Errorf("progress delivered a job with neither result nor error: %s", r.Job.Describe())
		}
		seen = append(seen, done)
	})
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("%d progress calls, want %d", len(seen), len(jobs))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not monotonic", seen)
		}
	}
}

func TestJobErrorsCollected(t *testing.T) {
	jobs := []Job{
		{Label: "bad", Scheme: "3SSS", Benchmarks: []string{"no-such-bench"},
			Machine: isa.Default(), PerfectMemory: true, InstrLimit: 1000},
		{Label: "good", Scheme: "", Benchmarks: []string{"mcf"},
			Machine: isa.Default(), PerfectMemory: true, InstrLimit: 1000},
	}
	results, err := New(2).Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("want joined error for the failing job")
	}
	if results[0].Err == nil {
		t.Error("failing job has no error")
	}
	if results[1].Err != nil || results[1].Res == nil {
		t.Errorf("good job failed: %v", results[1].Err)
	}
}

// TestJobValidateScheme checks scheme names are validated up front
// with a descriptive error instead of failing deep in the simulator.
func TestJobValidateScheme(t *testing.T) {
	base := Job{Benchmarks: []string{"mcf"}, Machine: isa.Default(), PerfectMemory: true, InstrLimit: 1000}

	bad := base
	bad.Scheme = "bogus!"
	err := bad.Validate()
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if !strings.Contains(err.Error(), "bogus!") {
		t.Errorf("error does not name the scheme: %v", err)
	}

	mismatch := base
	mismatch.Scheme = "2SC3" // merges 4 threads
	mismatch.Contexts = 3
	if err := mismatch.Validate(); err == nil {
		t.Error("scheme/context mismatch accepted")
	}

	for _, scheme := range []string{"", "1S", "2SC3", "C4", "IMT", "BMT"} {
		ok := base
		ok.Scheme = scheme
		if err := ok.Validate(); err != nil {
			t.Errorf("valid scheme %q rejected: %v", scheme, err)
		}
	}
}

// TestDescribeNamesTheSchemeThatRuns: a label-less job that carries
// both a Scheme name and a Merge tree runs the tree, so its derived
// label names the tree, not the overridden name.
func TestDescribeNamesTheSchemeThatRuns(t *testing.T) {
	tree, err := merge.Resolve("S(C(T0,T1,T2),T3)")
	if err != nil {
		t.Fatal(err)
	}
	j := Job{Scheme: "2SC3", Merge: tree, Benchmarks: []string{"mcf", "bzip2", "x264", "idct"}}
	if got, want := j.Describe(), "mcf+3/S(C(T0,T1,T2),T3)"; got != want {
		t.Errorf("Describe() = %q, want %q", got, want)
	}
	j.Merge = merge.Scheme{}
	if got, want := j.Describe(), "mcf+3/2SC3"; got != want {
		t.Errorf("without Merge: Describe() = %q, want %q", got, want)
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := (Grid{Mixes: []string{"no-such-mix"}}).Jobs(); err == nil {
		t.Error("unknown mix accepted")
	}
	if _, err := (Grid{Schemes: []string{"bogus!"}}).Jobs(); err == nil {
		t.Error("unknown scheme accepted")
	}
	jobs, err := Grid{}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 16*9 {
		t.Errorf("default grid has %d jobs, want 144", len(jobs))
	}
	for _, j := range jobs[:3] {
		if j.Machine.Clusters == 0 || j.ICache.Size == 0 || j.InstrLimit == 0 || j.TimesliceCycles == 0 {
			t.Errorf("defaults not applied: %+v", j)
		}
	}
}

// overCapGrid returns a grid whose axis product is 16 jobs past
// MaxGridJobs, built from repeats of valid names as a hostile request
// would be.
func overCapGrid() Grid {
	g := Grid{Mixes: make([]string, 16), Schemes: make([]string, MaxGridJobs/16+1)}
	for i := range g.Mixes {
		g.Mixes[i] = "LLHH"
	}
	for i := range g.Schemes {
		g.Schemes[i] = "3SSS"
	}
	return g
}

// TestGridExpansionCapped pins the bound on grid expansion: a grid at
// MaxGridJobs expands, one past it fails with an error naming both
// counts, and the failure comes before the job slice is allocated.
func TestGridExpansionCapped(t *testing.T) {
	g := overCapGrid()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	jobs, err := g.Jobs()
	runtime.ReadMemStats(&after)
	n := len(g.Schemes) * len(g.Mixes)
	if err == nil {
		t.Fatalf("%d-job grid expanded to %d jobs, want an error", n, len(jobs))
	}
	for _, want := range []string{fmt.Sprint(n), fmt.Sprint(MaxGridJobs)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// The job slice alone would be tens of megabytes.
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rejecting the grid allocated %d bytes", got)
	}

	g.Schemes = g.Schemes[:MaxGridJobs/16]
	jobs, err = g.Jobs()
	if err != nil {
		t.Fatalf("grid at the cap rejected: %v", err)
	}
	if len(jobs) != MaxGridJobs {
		t.Errorf("grid at the cap expanded to %d jobs, want %d", len(jobs), MaxGridJobs)
	}
}
