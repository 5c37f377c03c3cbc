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
// Runners (the server shares one across every sweep it executes).
// Corrupt, truncated or schema-mismatched entries are treated as cache
// misses, never served.
type ResultStore = resultstore.Store

// StoreStats is a snapshot of a ResultStore handle's traffic counters
// (hits, misses, puts).
type StoreStats = resultstore.Stats

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
// package-level Run/RunMix/Sweep functions.
func SharedCompileCache() *CompileCache { return sweep.SharedCache() }

// Runner is a long-lived experiment session. All of its methods — Run,
// RunMix, Sweep, SweepJobs — share one compile cache, so a Runner that
// serves many calls (a REPL, a service handler, a benchmark harness)
// compiles each (benchmark, machine) kernel exactly once. A Runner is
// safe for concurrent use; results obey the same determinism contract
// as the engine (index-ordered, seed-derived, bit-identical at any
// worker count).
//
// The zero configuration — NewRunner() — uses a private compile cache
// and one worker per core. The package-level functions are thin
// wrappers over a default Runner attached to the process-wide cache.
type Runner struct {
	workers  int
	cache    *CompileCache
	progress func(done, total int, r SweepResult)
	seed     uint64
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

// WithSharedCache attaches the process-wide compile cache, sharing
// compiled kernels with the package-level functions and every other
// Runner constructed with this option.
func WithSharedCache() RunnerOption {
	return func(r *Runner) { r.cache = sweep.SharedCache() }
}

// WithProgress installs a progress sink called after each sweep job
// completes (done jobs, total jobs, the completed result). Calls are
// serialised by the engine.
func WithProgress(fn func(done, total int, r SweepResult)) RunnerOption {
	return func(r *Runner) { r.progress = fn }
}

// WithSeed sets the Runner's default sweep seed: a Grid submitted with
// Seed zero inherits it before expansion. Explicit Grid or Job seeds
// always win.
func WithSeed(seed uint64) RunnerOption {
	return func(r *Runner) { r.seed = seed }
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

// WithStore attaches an existing result store handle, typically to
// share one store (and its hit/miss counters) between Runners, as the
// sweep server does. A nil store is ignored.
func WithStore(s *ResultStore) RunnerOption {
	return func(r *Runner) {
		if s != nil {
			r.store = s
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
// disabled), for stats, snapshots and sharing.
func (r *Runner) Store() *ResultStore { return r.store }

// Run simulates the given software threads under cfg.
func (r *Runner) Run(cfg Config, tasks []Task) (*Result, error) {
	return sim.Run(cfg, tasks)
}

// RunMix compiles the named Table 2 mix through the Runner's compile
// cache and simulates it under cfg. Repeated calls on one Runner reuse
// the compiled kernels.
func (r *Runner) RunMix(cfg Config, mixName string) (*Result, error) {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return nil, err
	}
	var tasks []Task
	for _, name := range mix.Members {
		p, err := r.cache.Get(name, cfg.Machine)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, Task{Name: name, Prog: p})
	}
	return sim.Run(cfg, tasks)
}

// Sweep expands the grid (applying the Runner's default seed when the
// grid leaves Seed zero) and executes it; see SweepJobs.
func (r *Runner) Sweep(ctx context.Context, g Grid) ([]SweepResult, error) {
	if g.Seed == 0 && r.seed != 0 {
		g.Seed = r.seed
	}
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
