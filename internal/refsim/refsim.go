// Package refsim is the reference simulator oracle: the original naive
// per-cycle loop of internal/sim, kept verbatim in spirit — one full
// iteration per cycle with no stall fast-forward, selection through the
// recursive merge-tree walk (Scheme.ReferenceSelector) instead of the
// compiled evaluator, and no hot-path shortcuts.
//
// It exists so the optimized sim.Run can be proven bit-identical: the
// differential tests in internal/sim run both loops across the full
// scheme/workload/seed matrix and require equal Results. Keep this
// package boring — any optimization added here defeats its purpose. If
// simulator *semantics* change (not performance), change both loops in
// the same commit.
package refsim

import (
	"fmt"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/program"
	"vliwmt/internal/sim"
)

type taskState struct {
	walker  *program.Walker
	readyAt int64
	fetched bool
	done    bool
	stats   sim.ThreadStats
}

// xorshift64 for OS scheduling decisions; must match sim exactly.
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

// Run simulates tasks on the configured processor with the naive loop.
// It accepts exactly the configurations sim.Run accepts and must return
// exactly the Result sim.Run returns.
func Run(cfg sim.Config, tasks []sim.Task) (*sim.Result, error) {
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("refsim: no tasks")
	}
	if cfg.Contexts < 1 {
		return nil, fmt.Errorf("refsim: %d contexts", cfg.Contexts)
	}
	if cfg.InstrLimit < 1 {
		return nil, fmt.Errorf("refsim: instruction limit %d", cfg.InstrLimit)
	}
	if cfg.TimesliceCycles <= 0 {
		cfg.TimesliceCycles = 1_000_000
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 400 * cfg.InstrLimit
	}
	var sel merge.Selector
	var err error
	if cfg.Contexts == 1 {
		sel = &merge.IMT{NumPorts: 1} // trivial single-thread issue
	} else {
		var sch merge.Scheme
		if sch, err = cfg.MergeScheme(); err != nil {
			return nil, fmt.Errorf("refsim: %w", err)
		}
		if sel, err = sch.ReferenceSelector(cfg.Contexts); err != nil {
			return nil, fmt.Errorf("refsim: %w", err)
		}
		if sel.Ports() != cfg.Contexts {
			return nil, fmt.Errorf("refsim: scheme %s has %d ports, machine has %d contexts", sch.Name(), sel.Ports(), cfg.Contexts)
		}
	}
	var ic, dc *cache.Cache
	if !cfg.PerfectMemory {
		if ic, err = cache.New(cfg.ICache); err != nil {
			return nil, fmt.Errorf("refsim: icache: %w", err)
		}
		if dc, err = cache.New(cfg.DCache); err != nil {
			return nil, fmt.Errorf("refsim: dcache: %w", err)
		}
	}

	m := cfg.Machine
	states := make([]*taskState, len(tasks))
	for i, t := range tasks {
		if t.Prog == nil {
			return nil, fmt.Errorf("refsim: task %d (%s) has no program", i, t.Name)
		}
		if err := t.Prog.Validate(&m); err != nil {
			return nil, fmt.Errorf("refsim: task %s: %w", t.Name, err)
		}
		seed := cfg.Seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
		states[i] = &taskState{
			walker: program.NewWalker(t.Prog, seed, uint64(i+1)<<32, uint64(i+1)<<33),
			stats:  sim.ThreadStats{Name: t.Name},
		}
	}

	osRng := rng{s: cfg.Seed ^ 0xd1b54a32d192ed03}
	if osRng.s == 0 {
		osRng.s = 1
	}

	// running maps hardware contexts to task indices (-1 = idle).
	running := make([]int, cfg.Contexts)
	pool := make([]int, 0, len(tasks)) // descheduled, not done
	for i := range tasks {
		pool = append(pool, i)
	}
	for i := range running {
		running[i] = -1
	}
	schedule := func() {
		// Return running tasks to the pool, then draw random replacements
		// (the paper picks replacement threads at random for fairness).
		for c, ti := range running {
			if ti >= 0 && !states[ti].done {
				pool = append(pool, ti)
			}
			running[c] = -1
		}
		for c := 0; c < cfg.Contexts && len(pool) > 0; c++ {
			k := osRng.intn(len(pool))
			running[c] = pool[k]
			pool = append(pool[:k], pool[k+1:]...)
		}
	}
	schedule()

	res := &sim.Result{
		MergeHist:  make([]int64, cfg.Contexts+1),
		IssueWidth: m.TotalIssueWidth(),
	}
	cands := make([]isa.Occupancy, cfg.Contexts)
	ports := make([]int, cfg.Contexts) // port -> context mapping
	finished := false

	var cycle int64
	for cycle = 0; cycle < cfg.MaxCycles && !finished; cycle++ {
		if cycle > 0 && cycle%cfg.TimesliceCycles == 0 && len(tasks) > cfg.Contexts {
			schedule()
		}
		// Priority rotation: the thread-to-port mapping advances each
		// cycle so every thread takes every position in the merge tree.
		rot := 0
		if !cfg.FixedPriority {
			rot = int(cycle % int64(cfg.Contexts))
		}
		var valid uint32
		for p := 0; p < cfg.Contexts; p++ {
			ctx := (p + rot) % cfg.Contexts
			ports[p] = ctx
			ti := running[ctx]
			if ti < 0 {
				continue
			}
			st := states[ti]
			if st.done || st.readyAt > cycle {
				continue
			}
			if !st.fetched {
				_, addr := st.walker.Current()
				st.fetched = true // the line arrives during any stall
				if ic != nil && !ic.Access(addr, false) {
					pen := int64(ic.MissPenalty())
					st.readyAt = cycle + pen
					st.stats.StallFetch += pen
					continue
				}
			}
			in, _ := st.walker.Current()
			cands[p] = in.Occ
			valid |= 1 << uint(p)
		}

		selection := sel.Select(&m, cands, valid)
		res.MergeHist[selection.Count()]++
		if selection.Occ.Ops == 0 {
			res.EmptyCycles++
		}

		for p := 0; p < cfg.Contexts; p++ {
			if valid&(1<<uint(p)) == 0 {
				continue
			}
			ti := running[ports[p]]
			st := states[ti]
			st.stats.ScheduledCycles++
			if !selection.Has(p) {
				st.stats.ConflictCycles++
				continue
			}
			info := st.walker.Retire()
			st.fetched = false
			st.stats.Instrs++
			st.stats.Ops += int64(info.Ops)
			res.Instrs++
			res.Ops += int64(info.Ops)

			var memStall, brStall int64
			for _, acc := range info.Mem {
				if dc != nil && !dc.Access(acc.Addr, acc.Store) {
					memStall += int64(dc.MissPenalty())
				}
			}
			if info.Taken {
				brStall = int64(m.BranchPenalty)
			}
			// Both a blocking miss and a squash stall the front end; they
			// overlap, so the thread resumes after the longer of the two.
			stall := memStall
			if brStall > stall {
				stall = brStall
			}
			if stall > 0 {
				st.readyAt = cycle + 1 + stall
				st.stats.StallMem += memStall
				st.stats.StallBranch += brStall
			}
			if st.walker.Retired >= cfg.InstrLimit {
				st.done = true
				finished = true
			}
		}
	}

	res.Cycles = cycle
	res.TimedOut = !finished
	if res.Cycles > 0 {
		res.IPC = float64(res.Ops) / float64(res.Cycles)
	}
	for _, st := range states {
		res.Threads = append(res.Threads, st.stats)
	}
	if ic != nil {
		res.ICache = ic.Stats
	}
	if dc != nil {
		res.DCache = dc.Stats
	}
	return res, nil
}
