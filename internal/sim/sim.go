// Package sim is the cycle-level simulator of the multithreaded clustered
// VLIW processor evaluated in the paper: per-cycle instruction fetch
// through a shared ICache, a thread merge stage (any merging scheme from
// internal/merge), issue of the merged execution packet, blocking data
// cache misses, and a 2-cycle squash after taken branches (no branch
// predictor; fall-through is the predicted path).
//
// On top of the core sits the paper's multitasking model: the hardware
// thread contexts are exposed as virtual CPUs, the OS schedules software
// threads onto them in 1M-cycle timeslices, and replacement threads are
// picked at random when a timeslice expires. A run ends when the first
// thread retires its instruction budget.
//
// There is one cycle loop, Run's in core.go: every simulation is one
// run of it. The naive reference loop in internal/refsim is the oracle
// it must match bit for bit.
package sim

import (
	"fmt"
	"slices"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/program"
)

// Config parameterises one simulation run.
type Config struct {
	Machine isa.Machine
	ICache  cache.Config
	DCache  cache.Config
	// PerfectMemory disables both caches (every access hits), producing
	// the paper's IPCp numbers.
	PerfectMemory bool
	// Contexts is the number of hardware thread contexts (virtual
	// CPUs); 0 runs the merge scheme's port count, or 1 context when
	// the config names no scheme (EffectiveContexts).
	Contexts int
	// Scheme names the merge control: a paper name ("3SSS", "2SC3",
	// "C4", ...), a baseline ("IMT", "BMT") or a canonical tree
	// expression such as "C(S(T0,T1),T2,T3)". Ignored when
	// Contexts == 1 or Merge is set.
	Scheme string
	// Merge, when set, is the merge control as a first-class scheme and
	// takes precedence over Scheme (MergeScheme applies the rule).
	// Unknown names and port/context mismatches fail at Run entry,
	// before any simulation work.
	Merge merge.Scheme
	// TimesliceCycles is the OS scheduling quantum (default 1,000,000).
	TimesliceCycles int64
	// InstrLimit ends the run when any thread retires this many VLIW
	// instructions (the paper uses 100M; tests use much less). It is at
	// most MaxInstrLimit, so the default MaxCycles cannot overflow.
	InstrLimit int64
	// MaxCycles is a safety bound (default 400 * InstrLimit).
	MaxCycles int64
	// FixedPriority disables the default round-robin priority rotation
	// between threads and ports.
	FixedPriority bool
	// Seed drives OS scheduling decisions and per-thread behaviours.
	Seed uint64
}

// DefaultConfig returns the paper's machine: 4 clusters x 4 issue,
// 64KB/4-way/20-cycle I and D caches, 1M-cycle timeslices, and 3SSS
// merging on its 4 ports' worth of contexts (Contexts 0).
func DefaultConfig() Config {
	return Config{
		Machine:         isa.Default(),
		ICache:          cache.DefaultConfig(),
		DCache:          cache.DefaultConfig(),
		Scheme:          "3SSS",
		TimesliceCycles: defaultTimeslice,
		InstrLimit:      1_000_000,
		Seed:            1,
	}
}

// Task is one software thread: a compiled program plus a name for
// reporting.
type Task struct {
	Name string
	Prog *program.Program
}

// ThreadStats reports per-software-thread results.
type ThreadStats struct {
	Name string `json:"name,omitempty"`
	// Instrs and Ops are retired VLIW instructions and operations.
	Instrs int64 `json:"instrs,omitempty"`
	Ops    int64 `json:"ops,omitempty"`
	// ScheduledCycles counts the thread's candidate cycles: cycles it
	// held a hardware context with an instruction ready to issue. Each
	// one either issued (Instrs) or lost the merge (ConflictCycles), so
	// it equals Instrs + ConflictCycles; stalled cycles are not counted.
	ScheduledCycles int64 `json:"scheduled_cycles,omitempty"`
	// ConflictCycles counts cycles the thread had an instruction ready
	// but the merge control did not select it.
	ConflictCycles int64 `json:"conflict_cycles,omitempty"`
	// StallMem, StallFetch and StallBranch are cycles lost to data-cache
	// misses, instruction-cache misses and taken-branch squash.
	StallMem    int64 `json:"stall_mem,omitempty"`
	StallFetch  int64 `json:"stall_fetch,omitempty"`
	StallBranch int64 `json:"stall_branch,omitempty"`
}

// Result is the outcome of a run. Its json tags are the result's wire
// and store form: every field round-trips exactly, so a result fetched
// over the wire or read from a store is bit-identical to the
// in-process one.
type Result struct {
	Cycles int64 `json:"cycles"`
	Instrs int64 `json:"instrs"`
	Ops    int64 `json:"ops"`
	// IPC is operations per cycle (the paper's metric).
	IPC float64 `json:"ipc"`
	// MergeHist[k] counts cycles in which k threads issued together.
	MergeHist []int64       `json:"merge_hist,omitempty"`
	Threads   []ThreadStats `json:"threads,omitempty"`
	ICache    cache.Stats   `json:"icache,omitempty"`
	DCache    cache.Stats   `json:"dcache,omitempty"`
	// IssueWidth is the machine-wide issue width, for waste accounting.
	IssueWidth int `json:"issue_width,omitempty"`
	// EmptyCycles counts cycles in which zero operations issued (no
	// thread selected, or only NOP bundles covering latency gaps).
	EmptyCycles int64 `json:"empty_cycles,omitempty"`
	// TimedOut reports that MaxCycles elapsed before any thread finished.
	TimedOut bool `json:"timed_out,omitempty"`
}

// Clone returns a copy of r with its own slices, so the copy shares no
// memory with r.
func (r *Result) Clone() *Result {
	c := *r
	c.MergeHist = slices.Clone(r.MergeHist)
	c.Threads = slices.Clone(r.Threads)
	return &c
}

// VerticalWaste returns the fraction of cycles in which no operation
// issued at all — the vertical waste of the paper's Section 1.
func (r *Result) VerticalWaste() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.EmptyCycles) / float64(r.Cycles)
}

// HorizontalWaste returns the fraction of issue slots left empty during
// cycles in which at least one operation issued — the horizontal waste of
// the paper's Section 1. Utilisation, vertical and horizontal waste sum
// to one.
func (r *Result) HorizontalWaste() float64 {
	slots := r.Cycles * int64(r.IssueWidth)
	if slots == 0 {
		return 0
	}
	nonEmptySlots := slots - r.EmptyCycles*int64(r.IssueWidth)
	return float64(nonEmptySlots-r.Ops) / float64(slots)
}

// Utilisation returns the fraction of issue slots that executed an
// operation.
func (r *Result) Utilisation() float64 {
	slots := r.Cycles * int64(r.IssueWidth)
	if slots == 0 {
		return 0
	}
	return float64(r.Ops) / float64(slots)
}

// MaxInstrLimit is the largest instruction budget a run accepts. Its
// default cycle bound, 400 × InstrLimit, stays below 2^62, so no cycle
// count a run derives from it overflows an int64.
const MaxInstrLimit = (1 << 62) / 400

// defaultTimeslice is the paper's OS quantum, the TimesliceCycles an
// unset config runs with.
const defaultTimeslice = 1_000_000

// ScaledTimeslice is the OS quantum of a scaled-down run with the given
// per-thread budget. The paper slices 1M cycles against a 100M
// instruction budget, so a scaled run slices 1% of its budget, and at
// least 1,000 cycles.
func ScaledTimeslice(instrLimit int64) int64 {
	return max(instrLimit/100, 1000)
}

// Validate reports whether cfg describes a processor Run can simulate:
// a valid machine, at least one context, an instruction budget in
// [1, MaxInstrLimit], valid cache geometries (unless PerfectMemory is set)
// and, for more than one context, a merge scheme that resolves to
// exactly Contexts ports. Run rejects an invalid config with the same
// error, before any simulation work.
func (cfg Config) Validate() error {
	_, err := cfg.scheme()
	return err
}

// MergeScheme resolves the merge control the config names. It is the
// one home of the rule for the two spellings: Merge when set, else
// Scheme through merge.Resolve, else the zero Scheme (no merging).
func (cfg Config) MergeScheme() (merge.Scheme, error) {
	if !cfg.Merge.IsZero() || cfg.Scheme == "" {
		return cfg.Merge, nil
	}
	return merge.Resolve(cfg.Scheme)
}

// EffectiveContexts returns the hardware context count cfg runs with:
// Contexts when set, else the port count of the merge scheme it names,
// or 1 when it names none. An unresolvable scheme yields 0; Validate
// reports the error.
func (cfg Config) EffectiveContexts() int {
	if cfg.Contexts != 0 {
		return cfg.Contexts
	}
	sch, err := cfg.MergeScheme()
	if err != nil {
		return 0
	}
	return schemeContexts(sch)
}

// schemeContexts is the context count of a run that leaves Contexts
// unset: the port count of its merge scheme sch, or 1 without one.
func schemeContexts(sch merge.Scheme) int { return max(sch.Ports(), 1) }

// scheme applies the Validate rules, sets an unset Contexts (see
// EffectiveContexts) and returns the merge control the run builds its
// selector from.
func (cfg *Config) scheme() (merge.Scheme, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return merge.Scheme{}, err
	}
	var sch merge.Scheme
	if cfg.Contexts != 1 {
		var err error
		if sch, err = cfg.MergeScheme(); err != nil {
			return merge.Scheme{}, fmt.Errorf("sim: %w", err)
		}
		if cfg.Contexts == 0 {
			cfg.Contexts = schemeContexts(sch)
		}
	}
	switch {
	case cfg.Contexts < 1:
		return merge.Scheme{}, fmt.Errorf("sim: %d contexts", cfg.Contexts)
	case cfg.InstrLimit < 1:
		return merge.Scheme{}, fmt.Errorf("sim: instruction limit %d", cfg.InstrLimit)
	case cfg.InstrLimit > MaxInstrLimit:
		return merge.Scheme{}, fmt.Errorf("sim: instruction limit %d exceeds MaxInstrLimit (%d), beyond which the default cycle bound of 400 × the limit overflows", cfg.InstrLimit, MaxInstrLimit)
	}
	if !cfg.PerfectMemory {
		if err := cfg.ICache.Validate(); err != nil {
			return merge.Scheme{}, fmt.Errorf("sim: icache: %w", err)
		}
		if err := cfg.DCache.Validate(); err != nil {
			return merge.Scheme{}, fmt.Errorf("sim: dcache: %w", err)
		}
	}
	if cfg.Contexts == 1 {
		return merge.Resolve("IMT") // trivial single-thread issue
	}
	// Checks the scheme's ports against the contexts, uncompiled.
	if _, err := sch.ReferenceSelector(cfg.Contexts); err != nil {
		return merge.Scheme{}, fmt.Errorf("sim: %w", err)
	}
	return sch, nil
}

// Setup is a validated run, ready for a cycle loop. Prepare is the one
// set-up step Run and the refsim oracle share, so the multitasking
// model's rules have one home; each loop keeps its own cycle loop,
// selector (built from Scheme) and per-thread state.
type Setup struct {
	// Config is the run's config with its defaults applied when unset:
	// Contexts of EffectiveContexts, a TimesliceCycles of 1,000,000 and
	// a MaxCycles of 400 × InstrLimit.
	Config Config
	// Scheme is the merge control: the config's resolved scheme, or IMT
	// on one port for one context.
	Scheme merge.Scheme
	// OS draws the OS scheduler's replacement threads.
	OS    OSRand
	tasks []Task
}

// Prepare validates cfg (see Validate) and tasks, and returns the run's
// set-up. Every task needs a program that fits the machine.
func Prepare(cfg Config, tasks []Task) (*Setup, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("sim: no tasks")
	}
	sch, err := cfg.scheme()
	if err != nil {
		return nil, err
	}
	for i, t := range tasks {
		if t.Prog == nil {
			return nil, fmt.Errorf("sim: task %d (%s) has no program", i, t.Name)
		}
		if err := t.Prog.Validate(&cfg.Machine); err != nil {
			return nil, fmt.Errorf("sim: task %s: %w", t.Name, err)
		}
	}
	if cfg.TimesliceCycles <= 0 {
		cfg.TimesliceCycles = defaultTimeslice
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 400 * cfg.InstrLimit
	}
	s := &Setup{Config: cfg, Scheme: sch, OS: OSRand{cfg.Seed ^ 0xd1b54a32d192ed03}, tasks: tasks}
	if s.OS.s == 0 {
		s.OS.s = 1
	}
	return s, nil
}

// Caches returns the run's fresh caches, both nil under PerfectMemory.
func (s *Setup) Caches() (ic, dc *cache.Cache) {
	if !s.Config.PerfectMemory {
		// Prepare checked both geometries, so New cannot fail here.
		ic, _ = cache.New(s.Config.ICache)
		dc, _ = cache.New(s.Config.DCache)
	}
	return ic, dc
}

// Walker returns a fresh walker over task i's program, with a seed and
// a code and data relocation derived from the run seed and i.
func (s *Setup) Walker(i int) *program.Walker {
	seed := s.Config.Seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	return program.NewWalker(s.tasks[i].Prog, seed, uint64(i+1)<<32, uint64(i+1)<<33)
}

// OSRand is the OS scheduler's random source, an xorshift64* generator.
// Its draws pick replacement threads, so its sequence is part of the
// determinism contract.
type OSRand struct{ s uint64 }

// Intn returns the next draw in [0, n).
func (r *OSRand) Intn(n int) int {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return int(x * 0x2545f4914f6cdd1d % uint64(n))
}
