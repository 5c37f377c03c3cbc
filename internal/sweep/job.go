// Package sweep is the experiment-orchestration engine: it expresses a
// simulation run as a declarative Job, expands factor grids (scheme x
// workload mix) into job sets, and executes them on a bounded worker
// pool with a shared memoizing compile cache, so a 16-scheme x 9-mix
// sweep saturates every core instead of one.
//
// Results are aggregated deterministically: the returned slice is
// ordered by job index regardless of completion order, and each job
// carries its own seed, so the aggregate is bit-identical at any worker
// count. The engine supports context cancellation (partial results are
// returned), per-job error collection and progress callbacks.
package sweep

import (
	"fmt"
	"time"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/sim"
	"vliwmt/internal/workload"
)

// Job is one independent simulation: a workload (a list of Table 1
// benchmark names) run under one merge scheme on one machine/cache
// configuration. Jobs are plain values; the engine never mutates them.
// A Job is its own wire and store form: the json tags are the format
// of the sweep service's explicit jobs and of result-store entries.
type Job struct {
	// Label identifies the job in progress reports and results,
	// e.g. "LLHH/2SC3". Optional; Describe derives one when empty.
	Label string `json:"label,omitempty"`
	// Scheme names the merge control: a paper name ("3SSS", "2SC3",
	// "C4", ...), a baseline ("IMT", "BMT") or a canonical tree
	// expression such as "C(S(T0,T1),T2,T3)". Empty means no merging
	// (single-context multitasking) unless Merge is set.
	Scheme string `json:"scheme,omitempty"`
	// Merge, when set, is the merge control as a first-class scheme
	// and takes precedence over Scheme (MergeScheme applies the rule,
	// shared with sim.Config). It travels as the scheme's
	// JSON form, {"name":...,"tree":...}, so a custom tree keeps its
	// label across the wire.
	Merge merge.Scheme `json:"merge,omitzero"`
	// Benchmarks are the software threads, by Table 1 benchmark name.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Contexts is the hardware context count; 0 derives it from the
	// resolved merge scheme, or 1 when no scheme is set.
	Contexts int `json:"contexts,omitempty"`
	// Machine, ICache and DCache describe the simulated processor.
	Machine isa.Machine  `json:"machine,omitempty"`
	ICache  cache.Config `json:"icache,omitempty"`
	DCache  cache.Config `json:"dcache,omitempty"`
	// PerfectMemory disables the caches (the paper's IPCp runs).
	PerfectMemory bool `json:"perfect_memory,omitempty"`
	// InstrLimit is the per-thread instruction budget.
	InstrLimit int64 `json:"instr_limit,omitempty"`
	// TimesliceCycles is the OS scheduling quantum.
	TimesliceCycles int64 `json:"timeslice_cycles,omitempty"`
	// Seed drives OS scheduling and per-thread behaviours. The engine
	// uses it verbatim; Grid derives per-job seeds from the sweep seed.
	Seed uint64 `json:"seed,omitempty"`
}

// MergeScheme resolves the job's merge control by sim.Config's rule:
// the typed Merge field when set, else the Scheme name through
// merge.Resolve. A zero Scheme with no error means single-context
// multitasking.
func (j Job) MergeScheme() (merge.Scheme, error) {
	return sim.Config{Scheme: j.Scheme, Merge: j.Merge}.MergeScheme()
}

// SchemeName names the merge control the job runs: the resolved
// scheme's name, or the Scheme field as written when it does not
// resolve. It is "" when the job does not merge.
func (j Job) SchemeName() string {
	if s, err := j.MergeScheme(); err == nil {
		return s.Name()
	}
	return j.Scheme
}

// EffectiveContexts returns the hardware context count the job runs
// with, by sim.Config's rule: Contexts when set, else derived from the
// merge scheme. An unresolvable scheme yields 0; Validate reports the
// actual error.
func (j Job) EffectiveContexts() int {
	return sim.Config{Contexts: j.Contexts, Scheme: j.Scheme, Merge: j.Merge}.EffectiveContexts()
}

// Describe returns the job's label, deriving "bench+.../scheme" from
// the scheme that runs (SchemeName) when no explicit label was set.
func (j Job) Describe() string {
	if j.Label != "" {
		return j.Label
	}
	w := "?"
	if len(j.Benchmarks) > 0 {
		w = j.Benchmarks[0]
		if len(j.Benchmarks) > 1 {
			w += fmt.Sprintf("+%d", len(j.Benchmarks)-1)
		}
	}
	s := j.SchemeName()
	if s == "" {
		s = "ST"
	}
	return w + "/" + s
}

// config lowers the job to a simulator configuration running sch, the
// job's resolved merge scheme; an unset Contexts stays unset for the
// simulator to derive.
func (j Job) config(sch merge.Scheme) sim.Config {
	return sim.Config{
		Machine:         j.Machine,
		ICache:          j.ICache,
		DCache:          j.DCache,
		PerfectMemory:   j.PerfectMemory,
		Contexts:        j.Contexts,
		Merge:           sch,
		TimesliceCycles: j.TimesliceCycles,
		InstrLimit:      j.InstrLimit,
		Seed:            j.Seed,
	}
}

// Validate rejects jobs the engine cannot run, up front and with a
// descriptive error instead of a failure deep inside the simulator:
// unknown benchmarks, unresolvable merge scheme names, every config
// defect sim.Config.Validate reports (invalid machine or cache
// geometry, an instruction budget outside [1, sim.MaxInstrLimit],
// scheme/context mismatch) with the simulator's own message, and
// kernels that do not compile for the machine. It compiles through cc,
// the cache the job runs on, so the engine's later lookups are hits.
// A job that validates is never rejected by sim.Run.
func (j Job) Validate(cc *CompileCache) error {
	_, _, err := j.lower(cc)
	return err
}

// lower applies the Validate rules and returns the job's simulator
// configuration and compiled tasks, compiling only once the config is
// valid. It resolves the merge scheme once, into the config's Merge, so
// neither Validate nor sim.Run resolves the name again. A name the
// cache has already compiled for the job's machine is a known
// benchmark, so it skips the name lookup (a full parse for a generated
// name); the error order stays unknown benchmark, scheme, config,
// compile.
func (j Job) lower(cc *CompileCache) (sim.Config, []sim.Task, error) {
	if len(j.Benchmarks) == 0 {
		return sim.Config{}, nil, fmt.Errorf("sweep: job %s has no benchmarks", j.Describe())
	}
	for _, name := range j.Benchmarks {
		if cc.compiled(name, j.Machine) {
			continue
		}
		if _, err := workload.ByName(name); err != nil {
			return sim.Config{}, nil, fmt.Errorf("sweep: job %s: %w", j.Describe(), err)
		}
	}
	sch, err := j.MergeScheme()
	if err != nil {
		return sim.Config{}, nil, fmt.Errorf("sweep: job %s: scheme %q: %w", j.Describe(), j.Scheme, err)
	}
	cfg := j.config(sch)
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, nil, fmt.Errorf("sweep: job %s: %w", j.Describe(), err)
	}
	tasks, err := cc.Tasks(j.Benchmarks, j.Machine)
	if err != nil {
		return sim.Config{}, nil, fmt.Errorf("sweep: job %s: %w", j.Describe(), err)
	}
	return cfg, tasks, nil
}

// Result is one job's outcome, delivered at the job's submission index.
type Result struct {
	// Index is the job's position in the submitted slice; the engine
	// returns results ordered by it, independent of completion order.
	Index int
	Job   Job
	// Res is the simulation outcome; nil when Err is set.
	Res *sim.Result
	// Err carries the job's failure, or the sweep context's error for
	// jobs skipped after cancellation.
	Err error
	// Elapsed is the job's wall-clock simulation time. It is the only
	// non-deterministic field of a Result; for a Cached result it is
	// the original simulation's time, replayed from the store so warm
	// and cold sweeps report identical rows.
	Elapsed time.Duration
	// Cached reports that Res was served from a result store instead of
	// being simulated. It is informational: a cached result is
	// bit-identical to a fresh one under the determinism contract.
	Cached bool
}

// IPC returns the achieved IPC, or an error if the job failed or the
// simulation hit its cycle bound before retiring the budget.
func (r Result) IPC() (float64, error) {
	if r.Err != nil {
		return 0, r.Err
	}
	if r.Res == nil {
		return 0, fmt.Errorf("sweep: job %s has no result", r.Job.Describe())
	}
	if r.Res.TimedOut {
		return 0, fmt.Errorf("sweep: job %s timed out after %d cycles", r.Job.Describe(), r.Res.Cycles)
	}
	return r.Res.IPC, nil
}
