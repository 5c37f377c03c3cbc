package sweep

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
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
	batch    int
}

// autoBatchCap bounds auto-formed batch units. Beyond a few dozen
// lanes the set-up a batch shares — one plan per task and one packed
// occupancy dictionary — is already amortised, while bigger units
// coarsen cancellation and progress granularity and grow the batch's
// working set past cache comfort.
const autoBatchCap = 32

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

// SetBatch caps the lanes of the units the engine runs through
// sim.RunBatch: n <= 0 (the default) groups pending jobs by shape —
// same machine, same benchmark list — into units of at most
// autoBatchCap lanes; n >= 1 caps units at n lanes, so n == 1 runs
// every job as a one-lane unit. Batching is a scheduling decision
// only: per-job results, seeds, ordering, progress and store
// interactions are identical at every setting, because every lane of
// a batch is bit-identical to the same job run alone.
func (e *Engine) SetBatch(n int) { e.batch = n }

// Batch returns the configured batching cap (0 = auto).
func (e *Engine) Batch() int { return e.batch }

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

	// Dispatch in shape-homogeneous units: each unit's jobs share
	// compiled programs (same machine, same benchmarks) and run through
	// one batched cycle loop. SetBatch(1) makes every unit one job.
	units := e.batchUnits(jobs)
	unitCh := make(chan []int)
	go func() {
		defer close(unitCh)
		for _, u := range units {
			select {
			case unitCh <- u:
			case <-ctx.Done():
				return
			}
		}
	}()

	st := &sweepState{jobs: jobs, results: results, perJob: perJob, logger: logger}
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for unit := range unitCh {
				if err := ctx.Err(); err != nil {
					// Cancellation is unit-granular: a unit already
					// dispatched runs to completion, later units are
					// skipped whole.
					for _, i := range unit {
						results[i].Err = err
						metJobsErrored.Inc()
						metQueueDepth.Add(-1)
						st.processed.Add(1)
					}
					continue
				}
				e.runUnit(st, unit)
			}
		}()
	}
	wg.Wait()
	// Jobs the producer never handed to a worker (context cancelled
	// before dispatch) still occupy the queue gauge; release them.
	metQueueDepth.Add(st.processed.Load() - int64(len(jobs)))

	var errs []error
	if err := ctx.Err(); err != nil {
		// Jobs never handed to a worker keep the context error too.
		for i := range results {
			if results[i].Res == nil && results[i].Err == nil {
				results[i].Err = err
			}
		}
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
	jobs      []Job
	results   []Result
	mu        sync.Mutex // serialises progress callbacks and the done count
	done      int
	processed atomic.Int64 // jobs a worker finished, for queue-depth accounting
	perJob    bool
	logger    *slog.Logger
}

// shapeKey renders the part of a job the batched core requires to be
// common across a batch: the machine (which determines compilation)
// and the exact benchmark list (which determines the task vector and
// the per-task seeds/relocations). Everything else — scheme, contexts,
// caches, budgets, seeds — may vary freely between lanes.
func shapeKey(j Job) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v", j.Machine)
	for _, n := range j.Benchmarks {
		b.WriteByte('|')
		b.WriteString(n)
	}
	return b.String()
}

// batchUnits partitions job indices into dispatch units: shape groups
// in first-seen order, chunked to the configured cap. Unit formation is
// deterministic in the job list alone, and per-job results never
// depend on it.
func (e *Engine) batchUnits(jobs []Job) [][]int {
	limit := e.batch
	if limit <= 0 {
		limit = autoBatchCap
	}
	groupOf := map[string]int{}
	var groups [][]int
	for i := range jobs {
		k := shapeKey(jobs[i])
		gi, ok := groupOf[k]
		if !ok {
			gi = len(groups)
			groupOf[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	units := make([][]int, 0, len(groups))
	for _, g := range groups {
		for len(g) > limit {
			units = append(units, g[:limit])
			g = g[limit:]
		}
		units = append(units, g)
	}
	return units
}

// runUnit processes a shape-homogeneous unit through sim.RunBatch.
// Every per-job interaction is preserved: each job gets its own store
// probe (hits drop out of the batch), its own validation and its own
// compile-cache lookups, and progress/telemetry fire once per job.
// Only the cycle loop is shared — and every lane of sim.RunBatch is
// bit-identical to the job run alone, so results cannot depend on unit
// formation. Job.Validate applies sim.Config.Validate, so a job that
// reaches the batch is never rejected there; should RunBatch fail
// anyway, its error lands on every lane of the unit.
func (e *Engine) runUnit(st *sweepState, unit []int) {
	//vliwvet:allow detpure job wall time feeds the duration histogram only
	unitStart := time.Now()
	lanes := make([]int, 0, len(unit))
	cfgs := make([]sim.Config, 0, len(unit))
	var tasks []sim.Task
	for _, i := range unit {
		metJobsStarted.Inc()
		if e.store != nil {
			if res, elapsed, ok := e.store.Get(st.jobs[i]); ok {
				st.results[i].Res, st.results[i].Elapsed, st.results[i].Cached = res, elapsed, true
				continue
			}
		}
		if err := st.jobs[i].Validate(); err != nil {
			st.results[i].Err = err
			continue
		}
		// Compile through the cache per job, not once per unit: the
		// hit/miss accounting and pre-warm semantics must not depend on
		// batching. Lookups past the unit's first are cheap map hits
		// returning the same *Program pointers.
		jt, err := e.compileTasks(st.jobs[i])
		if err != nil {
			st.results[i].Err = err
			continue
		}
		if tasks == nil {
			tasks = jt
		}
		cfgs = append(cfgs, st.jobs[i].config())
		lanes = append(lanes, i)
	}
	if len(lanes) > 0 {
		//vliwvet:allow detpure Elapsed is a wall-clock column, excluded from the determinism contract
		simStart := time.Now()
		ress, err := sim.RunBatch(cfgs, tasks)
		// Elapsed is the amortised per-lane share of the batch's
		// wall-clock. Wall time is informational and excluded from the
		// determinism contract; the share keeps sweep summaries and
		// stored replay times meaningful.
		//vliwvet:allow detpure Elapsed is a wall-clock column, excluded from the determinism contract
		share := time.Since(simStart) / time.Duration(len(lanes))
		for k, i := range lanes {
			if err != nil {
				st.results[i].Err = err
				continue
			}
			st.results[i].Res = ress[k]
			st.results[i].Elapsed = share
			if e.store != nil {
				_ = e.store.Put(st.jobs[i], ress[k], share)
			}
		}
	}
	//vliwvet:allow detpure job wall time feeds the duration histogram only
	took := time.Since(unitStart) / time.Duration(len(unit))
	for _, i := range unit {
		e.finishJob(st, i, took)
	}
}

// finishJob is the per-job completion tail: the duration observation,
// outcome counters, queue-depth release, per-job trace and the
// serialised progress callback (done increments by exactly one per call, as documented on
// ProgressFunc, at any batch setting).
func (e *Engine) finishJob(st *sweepState, i int, took time.Duration) {
	metJobDuration.Observe(took.Seconds())
	if st.results[i].Err != nil {
		metJobsErrored.Inc()
	} else {
		metJobsCompleted.Inc()
	}
	metQueueDepth.Add(-1)
	st.processed.Add(1)
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

// compileTasks compiles the job's benchmarks through the shared cache.
func (e *Engine) compileTasks(j Job) ([]sim.Task, error) {
	tasks := make([]sim.Task, 0, len(j.Benchmarks))
	for _, name := range j.Benchmarks {
		p, err := e.cache.Get(name, j.Machine)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		tasks = append(tasks, sim.Task{Name: name, Prog: p})
	}
	return tasks, nil
}
