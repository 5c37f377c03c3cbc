package vliwmt

import (
	"context"

	"vliwmt/internal/resultstore"
	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
	"vliwmt/internal/workload"
)

// ResultStore is a disk-backed, content-addressed cache of completed
// sweep jobs: every successfully simulated job is persisted under a
// canonical hash of its full configuration (scheme tree, machine,
// caches, memory model, budget, seed, result-schema version), and any
// later sweep — in this process or another — that contains an
// identical job is served from disk instead of re-simulating it.
// Served results are marked SweepResult.Cached and replay the original
// run's elapsed time, so warm output is byte-identical to cold output.
//
// A ResultStore is safe for concurrent use and for sharing between
// sweeps (the server shares one across every sweep it executes).
// Corrupt, truncated or schema-mismatched entries are treated as cache
// misses, never served. Store traffic is counted process-wide, by the
// store_* counters of Metrics; a sweep's own hits are its results
// marked Cached.
type ResultStore = resultstore.Store

// OpenResultStore returns a result store rooted at dir. The directory
// is created on first write; opening a nonexistent or empty directory
// is valid (everything misses until the first sweep completes).
func OpenResultStore(dir string) *ResultStore { return resultstore.Open(dir) }

// CompileCache memoizes kernel compilation per (benchmark, machine).
// Compiled programs are immutable, so a cache is safe to share between
// Runners and across concurrent sweeps.
type CompileCache = sweep.CompileCache

// NewCompileCache returns an empty compile cache.
func NewCompileCache() *CompileCache { return sweep.NewCompileCache() }

// SharedCompileCache returns the process-wide compile cache used by the
// package-level RunMix, Sweep and SweepJobs functions; attach it to a
// Runner with WithCache(SharedCompileCache()).
func SharedCompileCache() *CompileCache { return sweep.SharedCache() }

// Runner is a long-lived experiment session. All of its methods —
// RunMix, Sweep, SweepJobs — share one compile cache, so a Runner that
// serves many calls (a REPL, a service handler, a benchmark harness)
// compiles each (benchmark, machine) kernel exactly once. A Runner is
// safe for concurrent use; results obey the same determinism contract
// as the engine (index-ordered, seed-derived, bit-identical at any
// worker count).
//
// The zero configuration — NewRunner() — uses a private compile cache
// and one worker per core. The package-level RunMix, Sweep and
// SweepJobs functions are thin wrappers over a default Runner attached
// to the process-wide cache.
type Runner struct {
	workers  int
	cache    *CompileCache
	progress func(done, total int, r SweepResult)
	store    *ResultStore
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithWorkers bounds the sweep worker pool; 0 (the default) selects
// runtime.NumCPU().
func WithWorkers(n int) RunnerOption {
	return func(r *Runner) { r.workers = n }
}

// WithCache attaches an explicit compile cache, typically to share
// compiled kernels between Runners. A nil cache is ignored.
func WithCache(c *CompileCache) RunnerOption {
	return func(r *Runner) {
		if c != nil {
			r.cache = c
		}
	}
}

// WithProgress installs a progress sink called after each sweep job
// completes (done jobs, total jobs, the completed result). Calls are
// serialised by the engine.
func WithProgress(fn func(done, total int, r SweepResult)) RunnerOption {
	return func(r *Runner) { r.progress = fn }
}

// WithResultStore enables result persistence rooted at dir: every
// successfully simulated job is written to the content-addressed store
// and any job with an identical configuration — in this sweep, a later
// sweep, or a later process — is served from disk instead of
// re-simulating. Lookups are per job, so a sweep that overlaps an
// earlier one only simulates the jobs that actually changed. Store
// write failures are silently ignored (persistence is an optimisation,
// never a correctness dependency); corrupt entries are misses.
func WithResultStore(dir string) RunnerOption {
	return func(r *Runner) {
		if dir != "" {
			r.store = resultstore.Open(dir)
		}
	}
}

// NewRunner returns a session configured by opts.
func NewRunner(opts ...RunnerOption) *Runner {
	r := &Runner{cache: sweep.NewCompileCache()}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Cache exposes the Runner's compile cache (for stats and pre-warming).
func (r *Runner) Cache() *CompileCache { return r.cache }

// Store exposes the Runner's result store (nil when persistence is
// disabled), for stats and snapshots.
func (r *Runner) Store() *ResultStore { return r.store }

// RunMix compiles the named Table 2 mix through the Runner's compile
// cache and simulates it under cfg. Repeated calls on one Runner reuse
// the compiled kernels.
func (r *Runner) RunMix(cfg Config, mixName string) (*Result, error) {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return nil, err
	}
	tasks, err := r.cache.Tasks(mix.Members[:], cfg.Machine)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg, tasks)
}

// Sweep expands the grid and executes it; see SweepJobs.
func (r *Runner) Sweep(ctx context.Context, g Grid) ([]SweepResult, error) {
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	return r.SweepJobs(ctx, jobs)
}

// SweepJobs executes an explicit job set on the Runner's worker pool
// with its shared compile cache. Results come back ordered by job
// index, bit-identical at any worker count. When result persistence is
// enabled, each job is looked up in the store before being compiled or
// simulated — previously completed jobs come back marked Cached with
// the original elapsed time — and every fresh simulation is persisted,
// so repeating a sweep against a warm store performs zero simulations.
func (r *Runner) SweepJobs(ctx context.Context, jobs []SweepJob) ([]SweepResult, error) {
	e := sweep.New(r.workers)
	e.SetCache(r.cache)
	if r.progress != nil {
		e.SetProgress(r.progress)
	}
	if r.store != nil {
		e.SetStore(r.store)
	}
	return e.Run(ctx, jobs)
}
