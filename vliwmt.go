// Package vliwmt is a cycle-level model of multithreaded clustered VLIW
// processors and of the thread merging schemes from Gupta, Sánchez and
// Llosa, "Thread Merging Schemes for Multithreaded Clustered VLIW
// Processors" (ICPP 2009).
//
// The library bundles everything needed to reproduce and extend the
// paper's evaluation:
//
//   - a VEX/Lx-like clustered VLIW machine model (Machine),
//   - a dataflow-IR kernel builder and optimising compiler
//     (NewKernel, CompileKernel) standing in for the VEX C compiler,
//   - the merge-control schemes — SMT, CSMT, and the paper's sixteen
//     cascade/tree combinations such as 2SC3 — selectable by name or
//     written as any merge tree in the canonical tree grammar, and
//     parsed into a typed value (Scheme, ParseScheme),
//   - a multithreaded cycle-level simulator with shared caches, taken
//     branch squash and a multitasking OS model (Run, RunMix),
//   - the twelve Table 1 benchmarks and nine Table 2 workload mixes
//     (Benchmarks, Mixes),
//   - a gate-level hardware cost model of every merge control
//     (SchemeCost, CostScaling),
//   - a parallel sweep engine that runs scheme x mix experiment grids on
//     a worker pool with a shared compile cache and deterministic
//     aggregation (Sweep, Grid, SweepResult),
//   - a long-lived session API (Runner) and an HTTP client (Client) that
//     submits the same grids to a remote vliwserve instance,
//   - a persistent, content-addressed result store (WithResultStore)
//     that serves repeated jobs from disk, and a golden conformance
//     harness (JobKey, SnapshotResults, DiffSnapshots, cmd/vliwdiff and
//     the TestGoldenCorpora fixture) that makes simulator regressions
//     diffable across commits.
//
// The quickest start, by scheme name:
//
//	cfg := vliwmt.DefaultConfig()
//	cfg.Scheme = "2SC3"
//	res, err := vliwmt.RunMix(cfg, "LLHH")
//	fmt.Println(res.IPC)
//
// # First-class merge schemes
//
// Scheme names are one spelling of a typed value: a Scheme wraps the
// merge-control tree itself. The same run with a typed scheme:
//
//	sch, err := vliwmt.ParseScheme("2SC3") // or "C3(S(T0,T1),T2,T3)"
//	cfg := vliwmt.DefaultConfig()
//	cfg.Merge = sch
//	res, err := vliwmt.RunMix(cfg, "LLHH")
//
// Beyond the paper's sixteen names, any merge tree is written as a
// canonical tree expression — the grammar DescribeScheme emits:
// S(...) and C(...) are SMT and CSMT nodes, Cn(...) a parallel CSMT
// node over n inputs, Tk hardware thread port k:
//
//	sch, err := vliwmt.ParseScheme("S(C(T0,T1,T2),T3)")
//	sch = sch.WithName("hybrid") // a label for reports; the tree is unchanged
//
// A tree expression is accepted anywhere a name is — Config.Scheme,
// Grid.Schemes, Cost, the CLIs — and means the same in every process,
// so it crosses the wire to a remote vliwserve as written. A typed
// Scheme in Config.Merge or SweepJob.Merge travels as its tree
// expression and label.
//
// # Runners and the top-level functions
//
// A Runner is a long-lived experiment session whose methods (RunMix,
// Sweep, SweepJobs) share one compile cache, configured with
// functional options — workers, cache, progress sink, result
// persistence:
//
//	r := vliwmt.NewRunner(vliwmt.WithWorkers(8))
//	res, err := r.RunMix(cfg, "LLHH")          // compiles LLHH once
//	res, err = r.RunMix(cfg, "LLHH")           // served from the cache
//	results, err := r.Sweep(ctx, vliwmt.Grid{Seed: 7})
//
// The package-level RunMix, Sweep and SweepJobs functions are thin
// wrappers over a default Runner attached to the process-wide compile
// cache, and Run simulates prepared tasks directly; they remain the
// simplest entry point. Construct your own Runner when you want an
// isolated or explicitly shared cache (WithCache, SharedCompileCache),
// a fixed worker budget, a progress sink that outlives one call, or
// on-disk result persistence (WithResultStore). A grid's seed is the
// Grid's own field.
//
// Sweeps can also run remotely: cmd/vliwserve serves the sweep engine
// over HTTP (POST /v1/sweeps, then NDJSON progress events), and
// Client submits a Grid to it, returning the same deterministic
// SweepResults as an in-process call — bit-identical modulo wall-clock
// fields, at any worker count on either side of the wire.
package vliwmt

import (
	"context"
	"fmt"

	"vliwmt/internal/cache"
	"vliwmt/internal/compiler"
	"vliwmt/internal/cost"
	"vliwmt/internal/ir"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/program"
	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
	"vliwmt/internal/workload"
)

// Machine describes the clustered VLIW processor (clusters, issue width,
// functional units, latencies, branch penalty).
type Machine = isa.Machine

// DefaultMachine returns the paper's 4-cluster, 4-issue-per-cluster
// configuration.
func DefaultMachine() Machine { return isa.Default() }

// CacheConfig describes one cache (size, line, ways, miss penalty).
type CacheConfig = cache.Config

// DefaultCache returns the paper's 64KB 4-way 20-cycle-miss cache.
func DefaultCache() CacheConfig { return cache.DefaultConfig() }

// Config parameterises a simulation run.
type Config = sim.Config

// DefaultConfig returns the paper's processor and OS configuration:
// 4 hardware contexts, 4-thread SMT merging, 64KB caches, 1M-cycle
// timeslices and a 1M-instruction budget.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Task is one software thread: a name and a compiled program.
type Task = sim.Task

// Result carries the outcome of a run: cycles, retired operations, IPC,
// the merge histogram, per-thread statistics and cache statistics.
type Result = sim.Result

// Program is compiled clustered-VLIW code ready for simulation.
type Program = program.Program

// defaultRunner backs the package-level RunMix function: a session on
// the process-wide compile cache, so top-level calls and Runners
// constructed with WithCache(SharedCompileCache()) reuse each other's
// kernels.
var defaultRunner = NewRunner(WithCache(SharedCompileCache()))

// Run simulates the given software threads under cfg.
func Run(cfg Config, tasks []Task) (*Result, error) { return sim.Run(cfg, tasks) }

// Benchmark describes one of the paper's Table 1 benchmarks.
type Benchmark = workload.Benchmark

// Benchmarks returns the twelve Table 1 benchmarks.
func Benchmarks() []Benchmark { return workload.Benchmarks() }

// CompileBenchmark compiles the named benchmark for machine m: a
// Table 1 name, or a canonical generated "gen:" name such as
// "gen:H:b2:o32:m1500:u2000:x500:p2500:t64:r1:s42". A generated name
// encodes its profile and seed completely and regenerates the same
// kernel anywhere, so it is accepted wherever a Table 1 name is
// (SweepJob.Benchmarks, Runner, Client, the wire format).
func CompileBenchmark(name string, m Machine) (*Program, error) {
	b, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return b.Compile(m)
}

// Mix is one of the paper's Table 2 workload configurations.
type Mix = workload.Mix

// Mixes returns the nine Table 2 workload mixes (LLLL .. HHHH).
func Mixes() []Mix { return workload.Mixes() }

// MixByName returns the named workload mix: a Table 2 name, or a
// canonical generated "genmix:<combo>:s<seed>" name such as
// "genmix:LLHH:s7", whose four-letter L/M/H combination picks the ILP
// class of each member and whose seed expands it deterministically
// into four generated benchmarks. Generated mix names are accepted
// wherever a Table 2 name is (RunMix, Grid.Mixes, vliwsweep -mixes).
func MixByName(name string) (Mix, error) { return workload.MixByName(name) }

// RunMix compiles the named Table 2 mix (through the process-wide
// compile cache) and simulates it under cfg.
func RunMix(cfg Config, mixName string) (*Result, error) {
	return defaultRunner.RunMix(cfg, mixName)
}

// Schemes returns the sixteen merging schemes of the paper's Figure 9,
// in its order. Scheme names parse as described in the paper: "3SCC" is a
// three-level cascade (SMT first, then two CSMT levels), "2SC3" merges two
// threads by SMT and the result with two more threads by parallel CSMT,
// "C4" is single-level parallel CSMT, "2CC".."2SS" are balanced trees, and
// "1S" is the 2-thread SMT reference.
func Schemes() []string { return merge.PaperSchemes4() }

// DescribeScheme renders the merge tree of a scheme in the canonical
// grammar ParseScheme accepts back, e.g. "C3(S(T0,T1),T2,T3)" for
// 2SC3. Tree expressions resolve too; the IMT/BMT baselines, which
// have no tree, yield a prose description.
func DescribeScheme(name string) (string, error) {
	s, err := merge.Resolve(name)
	if err != nil {
		return "", err
	}
	if s.Tree() == nil {
		return s.Describe(), nil
	}
	return s.String(), nil
}

// SchemeCost is the gate-level hardware cost of one merge control.
type SchemeCost = cost.SchemeCost

// Cost computes the transistor count and gate-delay depth of the named
// scheme's thread merge control on machine m (the paper's Figure 9).
// The name resolves like ParseScheme, so tree expressions are costed
// too.
func Cost(m Machine, scheme string) (SchemeCost, error) {
	return cost.ForScheme(m, scheme)
}

// ControlPoint is one thread-count sample of the merge-control scaling
// comparison (the paper's Figure 5).
type ControlPoint = cost.ControlPoint

// CostScaling compares CSMT-serial, CSMT-parallel and SMT merge controls
// from minThreads to maxThreads on machine m.
func CostScaling(m Machine, minThreads, maxThreads int) ([]ControlPoint, error) {
	return cost.ControlScaling(m, minThreads, maxThreads)
}

// KernelBuilder constructs custom workload kernels in the dataflow IR:
// blocks of operations with explicit dependencies, loop/branch behaviours
// and memory address streams.
type KernelBuilder = ir.Builder

// NewKernel starts a custom kernel with the given name.
func NewKernel(name string) *KernelBuilder { return ir.NewBuilder(name) }

// Kernel is a finished IR function, ready to compile.
type Kernel = ir.Function

// MemStream describes the address behaviour of a memory reference site.
type MemStream = ir.MemStream

// Address stream generators for MemStream.Kind.
const (
	StreamStride = ir.StreamStride
	StreamRandom = ir.StreamRandom
	StreamChase  = ir.StreamChase
)

// Branch behaviours for KernelBuilder.Branch.
var (
	Loop      = ir.Loop
	Bernoulli = ir.Bernoulli
	Always    = ir.Always
	Never     = ir.Never
)

// CompileKernel lowers a kernel for machine m, optionally unrolling
// self-loop blocks by the given factor (values below 2 disable unrolling).
func CompileKernel(k *Kernel, m Machine, unroll int) (*Program, error) {
	return compiler.Compile(k, compiler.Options{Machine: m, Unroll: unroll})
}

// Grid declares a scheme x workload-mix cross-product for Sweep: which
// merge schemes to evaluate on which Table 2 mixes, on what machine and
// budget. Zero-valued fields assume the paper's defaults; see the field
// documentation for seeding modes (per-job derived seeds versus a shared
// seed for scheme-identity comparisons).
type Grid = sweep.Grid

// SweepJob is one independent simulation of a sweep: a benchmark list
// run under one merge scheme on one machine configuration.
type SweepJob = sweep.Job

// SweepResult is one job's outcome. Results are always delivered ordered
// by job index, independent of completion order, so aggregated output is
// bit-identical at any worker count.
type SweepResult = sweep.Result

// SweepOptions tunes sweep execution.
type SweepOptions struct {
	// Workers bounds the worker pool; 0 selects runtime.NumCPU().
	Workers int
	// Progress, when set, is called after each job completes (done jobs,
	// total jobs, the completed result). Calls are serialised.
	Progress func(done, total int, r SweepResult)
}

// runner builds the one-call Runner behind the package-level Sweep and
// SweepJobs: the process-wide compile cache with o's workers and
// progress sink.
func (o SweepOptions) runner() *Runner {
	return NewRunner(WithCache(SharedCompileCache()), WithWorkers(o.Workers), WithProgress(o.Progress))
}

// Sweep expands the grid into jobs and executes them on a bounded worker
// pool with a shared compile cache: each benchmark kernel is compiled
// once per sweep, independent simulations run in parallel, and results
// come back deterministically ordered. Cancelling ctx stops dispatching
// and returns the partial results with ctx's error. It is a thin
// wrapper over Runner.Sweep on the process-wide compile cache.
func Sweep(ctx context.Context, g Grid, opts *SweepOptions) ([]SweepResult, error) {
	var o SweepOptions
	if opts != nil {
		o = *opts
	}
	return o.runner().Sweep(ctx, g)
}

// SweepJobs executes an explicit job set on the worker pool; see Sweep.
func SweepJobs(ctx context.Context, jobs []SweepJob, opts *SweepOptions) ([]SweepResult, error) {
	var o SweepOptions
	if opts != nil {
		o = *opts
	}
	return o.runner().SweepJobs(ctx, jobs)
}

// SingleThreadIPC is a convenience wrapper: it runs one program alone on
// the machine and reports its IPC, with real caches (perfect=false) or an
// ideal memory system (perfect=true) — the paper's IPCr and IPCp.
func SingleThreadIPC(m Machine, p *Program, instrLimit int64, perfect bool) (float64, error) {
	cfg := DefaultConfig()
	cfg.Machine = m
	cfg.Contexts = 1
	cfg.PerfectMemory = perfect
	cfg.InstrLimit = instrLimit
	res, err := Run(cfg, []Task{{Name: p.Name, Prog: p}})
	if err != nil {
		return 0, err
	}
	if res.TimedOut {
		return 0, fmt.Errorf("vliwmt: run timed out after %d cycles", res.Cycles)
	}
	return res.IPC, nil
}
