package sweep

// Observability of the engine: the ProgressFunc serialisation
// contract, and the process-wide telemetry the engine feeds
// (job/sweep counters, the queue-depth gauge, the job-duration
// histogram and the compile-cache counters).

import (
	"context"
	"errors"
	"testing"
	"time"

	"vliwmt/internal/telemetry"
)

// TestSlowProgressDelaysButNeverDeadlocks pins the documented
// ProgressFunc contract: calls are serialised under the engine's
// completion mutex, so a slow callback stretches the sweep's
// wall-clock — but it must never deadlock the pool, and the done
// count it observes still increments by exactly one per call.
func TestSlowProgressDelaysButNeverDeadlocks(t *testing.T) {
	g := testGrid()
	g.InstrLimit = 2_000
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	const delay = 10 * time.Millisecond
	e := New(8)
	var seen []int
	e.SetProgress(func(done, total int, r Result) {
		seen = append(seen, done) // no locking: the engine serialises calls
		time.Sleep(delay)
	})

	start := time.Now()
	finished := make(chan error, 1)
	go func() {
		_, err := e.Run(context.Background(), jobs)
		finished <- err
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep with a slow progress callback never finished — the pool deadlocked")
	}

	// The callbacks are serialised, so their sleeps cannot overlap:
	// the sweep must have been delayed by at least one delay per job.
	if elapsed := time.Since(start); elapsed < time.Duration(len(jobs))*delay {
		t.Errorf("sweep finished in %v, below the %v the serialised callbacks must take — callbacks overlapped", elapsed, time.Duration(len(jobs))*delay)
	}
	if len(seen) != len(jobs) {
		t.Fatalf("%d progress calls, want %d", len(seen), len(jobs))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("done sequence %v not an increment-by-one series", seen)
		}
	}
}

// TestEngineTelemetry runs one sweep and checks every engine
// instrument moved by exactly the sweep's shape: counters by job
// count, the duration histogram by one observation per job, and the
// queue-depth gauge back to where it started.
func TestEngineTelemetry(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	before := telemetry.Default().Snapshot()
	if _, err := New(4).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	after := telemetry.Default().Snapshot()
	delta := func(name string) int64 { return after.Counter(name) - before.Counter(name) }

	n := int64(len(jobs))
	if d := delta("sweep_runs_total"); d != 1 {
		t.Errorf("sweep_runs_total moved by %d, want 1", d)
	}
	if d := delta("sweep_jobs_started_total"); d != n {
		t.Errorf("sweep_jobs_started_total moved by %d, want %d", d, n)
	}
	if d := delta("sweep_jobs_completed_total"); d != n {
		t.Errorf("sweep_jobs_completed_total moved by %d, want %d", d, n)
	}
	if d := delta("sweep_jobs_errored_total"); d != 0 {
		t.Errorf("sweep_jobs_errored_total moved by %d on an error-free sweep", d)
	}
	if b, a := before.Gauge("sweep_queue_depth"), after.Gauge("sweep_queue_depth"); a != b {
		t.Errorf("sweep_queue_depth did not return to its baseline: %d -> %d", b, a)
	}
	hb, ha := before.Histograms["sweep_job_duration_seconds"], after.Histograms["sweep_job_duration_seconds"]
	if d := ha.Count - hb.Count; d != n {
		t.Errorf("sweep_job_duration_seconds observed %d jobs, want %d", d, n)
	}
	// 12 jobs x 4 threads = 48 compile-cache lookups, split between
	// hits and misses however the workers race.
	if d := delta("sweep_compile_cache_hits_total") + delta("sweep_compile_cache_misses_total"); d != 48 {
		t.Errorf("compile-cache lookups moved by %d, want 48", d)
	}
}

// TestQueueDepthReleasedOnCancel checks the accounting under
// cancellation: jobs skipped after the cancel must still be released
// from the queue gauge, or every cancelled sweep would leak queue depth
// forever, and each skipped job counts as errored. With one worker the
// cancel lands in the first job's progress callback, so every other
// job is skipped.
func TestQueueDepthReleasedOnCancel(t *testing.T) {
	g := testGrid()
	g.InstrLimit = 2_000
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	before := telemetry.Default().Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := New(1)
	e.SetProgress(func(done, total int, r Result) {
		if done == 1 {
			cancel()
		}
	})
	if _, err := e.Run(ctx, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	after := telemetry.Default().Snapshot()
	if b, a := before.Gauge("sweep_queue_depth"), after.Gauge("sweep_queue_depth"); a != b {
		t.Errorf("cancelled sweep leaked queue depth: %d -> %d", b, a)
	}
	errored := after.Counter("sweep_jobs_errored_total") - before.Counter("sweep_jobs_errored_total")
	if want := int64(len(jobs) - 1); errored != want {
		t.Errorf("sweep_jobs_errored_total moved by %d, want %d skipped jobs", errored, want)
	}
}
