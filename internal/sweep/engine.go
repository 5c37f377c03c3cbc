package sweep

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vliwmt/internal/sim"
	"vliwmt/internal/telemetry"
)

// ProgressFunc observes sweep progress: done jobs out of total, plus the
// result that just completed. The engine serialises calls, so the
// callback needs no locking of its own.
//
// Contract: the callback MUST NOT block. It runs on a worker goroutine
// under the engine's completion mutex, so while it executes no other
// job can report completion — a slow callback stretches the sweep's
// wall-clock and a callback that never returns (waiting on something
// that itself waits for sweep progress) deadlocks the pool. Hand
// long-running work to another goroutine; the server's NDJSON
// broadcaster, for example, only appends to a log and performs
// non-blocking channel sends. Completion order as seen by the callback
// is always monotonic: done increments by exactly one per call.
type ProgressFunc func(done, total int, r Result)

// ResultStore caches completed job results across sweeps (and, for a
// disk-backed implementation, across processes). Get must return only
// results the determinism contract vouches for — a hit is served in
// place of a simulation, with the stored wall-clock time replayed on
// the Result. Implementations must be safe for concurrent use; the
// engine calls them from every worker.
type ResultStore interface {
	Get(Job) (*sim.Result, time.Duration, bool)
	Put(Job, *sim.Result, time.Duration) error
}

// Engine executes job sets on a bounded worker pool with a shared
// compile cache. An Engine is safe for use by a single sweep at a time
// per Run call; the compile cache it owns is shared across Runs, so
// repeated sweeps on the same machine reuse compiled kernels.
type Engine struct {
	workers  int
	cache    *CompileCache
	progress ProgressFunc
	store    ResultStore
}

// PoolSize resolves a requested worker count to the effective pool
// size: values <= 0 select runtime.NumCPU(). It is the single owner of
// that policy; CLIs reporting the effective count use it too.
func PoolSize(workers int) int {
	if workers <= 0 {
		return runtime.NumCPU()
	}
	return workers
}

// New returns an engine running up to PoolSize(workers) jobs
// concurrently, with a fresh private compile cache; attach the
// process-wide one with SetCache(SharedCache()) to reuse kernels
// across engines.
func New(workers int) *Engine {
	return &Engine{workers: PoolSize(workers), cache: NewCompileCache()}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Cache exposes the engine's compile cache (for stats and pre-warming).
func (e *Engine) Cache() *CompileCache { return e.cache }

// SetCache replaces the engine's compile cache, typically with
// SharedCache() to share compiled kernels across engines.
func (e *Engine) SetCache(c *CompileCache) {
	if c != nil {
		e.cache = c
	}
}

// SetProgress installs a progress callback for subsequent Runs.
func (e *Engine) SetProgress(fn ProgressFunc) { e.progress = fn }

// SetStore attaches a result store. Each job is looked up before it is
// compiled or simulated — a hit skips both and marks the Result Cached
// — and every successfully simulated job is written back, so partial
// overlaps between sweeps reuse exactly the shared jobs. Store write
// failures are ignored: persistence is an optimisation, never a
// correctness dependency.
func (e *Engine) SetStore(s ResultStore) { e.store = s }

// Run executes every job and returns one Result per job, ordered by job
// index regardless of completion order. Individual job failures are
// collected on their Result (and joined into the returned error); they
// do not stop the sweep. Cancelling ctx stops dispatching new jobs:
// already-running jobs finish, skipped jobs carry the context's error,
// and the partial results are returned with that error.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sweepID := telemetry.EnsureSweepID(ctx)
	logger := telemetry.TraceLogger().With("sweep", sweepID)
	perJob := logger.Enabled(ctx, slog.LevelDebug)
	//vliwvet:allow detpure sweep wall time is reporting, not simulation state
	start := time.Now()
	logger.Info("sweep start", "jobs", len(jobs), "workers", e.workers)
	metSweepsStarted.Inc()
	metQueueDepth.Add(int64(len(jobs)))

	results := make([]Result, len(jobs))
	for i := range jobs {
		results[i] = Result{Index: i, Job: jobs[i]}
	}

	// Workers claim job indices in order from a shared counter: every
	// job is one sim.Run.
	st := &sweepState{jobs: jobs, results: results, perJob: perJob, logger: logger}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				if err := ctx.Err(); err != nil {
					// Cancellation is job-granular: a job already
					// running finishes, later jobs are skipped.
					results[i].Err = err
					metJobsErrored.Inc()
					metQueueDepth.Add(-1)
					continue
				}
				e.runJob(st, i)
			}
		}()
	}
	wg.Wait()

	var errs []error
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	for i := range results {
		if results[i].Err != nil && !errors.Is(results[i].Err, ctx.Err()) {
			errs = append(errs, fmt.Errorf("job %d (%s): %w", i, results[i].Job.Describe(), results[i].Err))
		}
	}
	//vliwvet:allow detpure sweep wall time is reporting, not simulation state
	sum := Summarize(results, time.Since(start))
	logger.Info("sweep finish",
		"jobs", sum.Jobs, "errors", sum.Errors, "store_hits", sum.CacheHits,
		"p50", sum.P50, "p99", sum.P99, "elapsed", sum.Wall, "jobs_per_sec", sum.JobsPerSec)
	return results, errors.Join(errs...)
}

// errString flattens an error for log attributes; nil logs as "".
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sweepState is the per-Run bookkeeping the workers share.
type sweepState struct {
	jobs    []Job
	results []Result
	mu      sync.Mutex // serialises progress callbacks and the done count
	done    int
	perJob  bool
	logger  *slog.Logger
}

// runJob processes one job: a store probe (a hit skips the rest),
// validation and compilation through the engine's cache (Job.Validate's
// steps, so a job that validates is never rejected by sim.Run), one
// sim.Run and the store write-back, then the completion tail.
func (e *Engine) runJob(st *sweepState, i int) {
	//vliwvet:allow detpure job wall time feeds the duration histogram only
	start := time.Now()
	//vliwvet:allow detpure job wall time feeds the duration histogram only
	defer func() { e.finishJob(st, i, time.Since(start)) }()
	metJobsStarted.Inc()
	j, r := st.jobs[i], &st.results[i]
	if e.store != nil {
		if res, elapsed, ok := e.store.Get(j); ok {
			r.Res, r.Elapsed, r.Cached = res, elapsed, true
			return
		}
	}
	cfg, tasks, err := j.lower(e.cache)
	if err != nil {
		r.Err = err
		return
	}
	//vliwvet:allow detpure Elapsed is a wall-clock column, excluded from the determinism contract
	simStart := time.Now()
	res, err := sim.Run(cfg, tasks)
	//vliwvet:allow detpure Elapsed is a wall-clock column, excluded from the determinism contract
	elapsed := time.Since(simStart)
	if err != nil {
		r.Err = err
		return
	}
	r.Res, r.Elapsed = res, elapsed
	if e.store != nil {
		_ = e.store.Put(j, res, elapsed)
	}
}

// finishJob is the per-job completion tail: the duration observation,
// outcome counters, queue-depth release, per-job trace and the
// serialised progress callback (done increments by exactly one per
// call, as documented on ProgressFunc).
func (e *Engine) finishJob(st *sweepState, i int, took time.Duration) {
	metJobDuration.Observe(took.Seconds())
	if st.results[i].Err != nil {
		metJobsErrored.Inc()
	} else {
		metJobsCompleted.Inc()
	}
	metQueueDepth.Add(-1)
	if st.perJob {
		st.logger.Debug("job done",
			"index", i, "job", st.jobs[i].Describe(),
			"cached", st.results[i].Cached,
			"err", errString(st.results[i].Err),
			"elapsed", took)
	}
	if e.progress != nil {
		st.mu.Lock()
		st.done++
		e.progress(st.done, len(st.jobs), st.results[i])
		st.mu.Unlock()
	}
}
