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
	// Contexts is the number of hardware thread contexts (virtual CPUs).
	Contexts int
	// Scheme names the merge control: a paper name ("3SSS", "2SC3",
	// "C4", ...), a baseline ("IMT", "BMT") or a canonical tree
	// expression such as "C(S(T0,T1),T2,T3)". Ignored when
	// Contexts == 1 or Merge is set.
	Scheme string
	// Merge, when set, is the merge control as a first-class scheme and
	// takes precedence over Scheme. Unknown names and port/context
	// mismatches fail at Run entry, before any simulation work.
	Merge merge.Scheme
	// TimesliceCycles is the OS scheduling quantum (default 1,000,000).
	TimesliceCycles int64
	// InstrLimit ends the run when any thread retires this many VLIW
	// instructions (the paper uses 100M; tests use much less).
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
// 64KB/4-way/20-cycle I and D caches, 1M-cycle timeslices.
func DefaultConfig() Config {
	return Config{
		Machine:         isa.Default(),
		ICache:          cache.DefaultConfig(),
		DCache:          cache.DefaultConfig(),
		Contexts:        4,
		Scheme:          "3SSS",
		TimesliceCycles: 1_000_000,
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

// xorshift64 for OS scheduling decisions.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Validate reports whether cfg describes a processor Run can simulate:
// a valid machine, at least one context, a positive instruction
// budget, valid cache geometries (unless PerfectMemory is set) and, for
// more than one context, a merge scheme that resolves to exactly
// Contexts ports. Run rejects an invalid config with the same error,
// before any simulation work.
func (cfg Config) Validate() error {
	_, err := cfg.selector()
	return err
}

// selector applies the Validate rules and returns the merge selector
// they resolved, so run set-up builds it once.
func (cfg *Config) selector() (*merge.Compiled, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if cfg.Contexts < 1 {
		return nil, fmt.Errorf("sim: %d contexts", cfg.Contexts)
	}
	if cfg.InstrLimit < 1 {
		return nil, fmt.Errorf("sim: instruction limit %d", cfg.InstrLimit)
	}
	if !cfg.PerfectMemory {
		if err := cfg.ICache.Validate(); err != nil {
			return nil, fmt.Errorf("sim: icache: %w", err)
		}
		if err := cfg.DCache.Validate(); err != nil {
			return nil, fmt.Errorf("sim: dcache: %w", err)
		}
	}
	if cfg.Contexts == 1 {
		return merge.NewSelector("IMT", 1) // trivial single-thread issue
	}
	sch := cfg.Merge
	if sch.IsZero() {
		var err error
		if sch, err = merge.Resolve(cfg.Scheme); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	sel, err := sch.Selector(cfg.Contexts)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if sel.Ports() != cfg.Contexts {
		return nil, fmt.Errorf("sim: scheme %s has %d ports, machine has %d contexts", sch.Name(), sel.Ports(), cfg.Contexts)
	}
	return sel, nil
}

// newTaskWalker builds task i's walker: the seed derivation and the
// per-task code/data relocation are part of the determinism contract
// and must match refsim's.
func newTaskWalker(cfg *Config, i int, t Task) *program.Walker {
	seed := cfg.Seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	return program.NewWalker(t.Prog, seed, uint64(i+1)<<32, uint64(i+1)<<33)
}

// osSeed derives the OS-scheduling RNG state from the run seed.
func osSeed(cfg *Config) uint64 {
	s := cfg.Seed ^ 0xd1b54a32d192ed03
	if s == 0 {
		s = 1
	}
	return s
}
