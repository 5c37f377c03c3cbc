// The cycle loop: Run advances one job through its cycles, one
// iteration of refsim's cycle loop per step. The job's compiled
// programs are flattened once into program.Plan tables, and the job
// keeps its own selector, caches, walkers and OS scheduler. The
// differential tests in batch_test.go, diff_test.go and
// conformance_test.go enforce bit-identity against refsim.
//
// Scheduling: the lane carries a wake cycle. An active lane wakes at
// cycle+1 (or, after a lone-candidate burst, at the cycle after the
// burst's last); an all-stalled lane bulk-accounts its stall span (the
// stall fast-forward) and sleeps until its next event.
//
// Selection runs on a packed occupancy dictionary (see
// merge.SelectPacked): the gather records dictionary IDs, and the merge
// stage answers cluster disjointness and SMT slot capacity with a few
// 64-bit SWAR operations instead of per-cluster loops over Occupancy
// structs.

package sim

import (
	"fmt"
	"math/bits"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/program"
)

// lane is one run of the cycle loop: the job's full state (selector,
// caches, task plans, walkers, OS scheduler, result accumulators) plus
// the wake cycle the loop schedules it by.
type lane struct {
	cfg Config
	m   isa.Machine
	sel *merge.Compiled
	// lone is set when sel is stateless, so a cycle with one candidate
	// opens a burst without calling it (every stateless kind selects a
	// lone candidate whole); BMT must see every non-empty call.
	lone   bool
	ic, dc *cache.Cache

	// plans[ti] is task ti's flattened program, and plis[ti] its
	// Instrs, kept as one slice-header array so the gather loop reaches
	// a PlannedInstr in a single hop.
	plans []*program.Plan
	plis  [][]program.PlannedInstr

	// Per-task context state.
	walkers []*program.Walker
	cur     []int32 // flat plan index of the current instruction
	readyAt []int64
	fetched []bool
	done    []bool
	stats   []ThreadStats

	// OS scheduling state: running maps hardware contexts to task
	// indices (-1 = idle); pool holds descheduled tasks not yet done.
	running []int
	pool    []int
	osRng   rng
	slicing bool
	nCtx    int
	// nextSlice is the next timeslice boundary. The stall fast-forward
	// never jumps past a boundary (nextEvent caps the span there), so
	// the cycle loop visits every boundary exactly and an absolute
	// next-boundary cycle replaces the per-cycle modulo.
	nextSlice int64
	// rotMask is nCtx-1 when nCtx is a power of two (priority rotation
	// by mask instead of division), -1 otherwise.
	rotMask   int64
	fixedPrio bool

	// Per-cycle buffers, reused across every cycle of the run:
	// candID[p] is the dictionary ID of the candidate at merge port p
	// (meaningful only when bit p of the cycle's valid mask is set) and
	// ports[p] is the context mapped to port p under the cycle's
	// priority rotation. The merge stage never touches an Occupancy.
	candID []int32
	ports  []int

	// Packed selection state: pd is the run's packed occupancy
	// dictionary and plim holds the machine's SWAR limit constants.
	pd   []merge.PackedOcc
	plim merge.PackedLimits

	res *Result
	// ffSpans/ffCycles count stall fast-forward jumps and the cycles
	// they skipped, and burstCycles the cycles issued by bursts; all
	// three are flushed to the telemetry counters once, in finalize.
	ffSpans, ffCycles, burstCycles int64

	// wakeAt is the next cycle at which this lane must step.
	wakeAt   int64
	finished bool
}

// Run simulates tasks on the configured processor. An invalid config
// (see Validate) or a task that does not fit the machine fails before
// any simulation work. The naive loop in internal/refsim is the oracle
// Run must match bit for bit.
func Run(cfg Config, tasks []Task) (*Result, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("sim: no tasks")
	}
	nt := len(tasks)
	plans := make([]*program.Plan, nt)
	plis := make([][]program.PlannedInstr, nt)
	totalOccs := 0
	for i, t := range tasks {
		if t.Prog == nil {
			return nil, fmt.Errorf("sim: task %d (%s) has no program", i, t.Name)
		}
		plans[i] = program.NewPlan(t.Prog)
		// Bake the per-task constants into the fresh plan's records: the
		// fetch address gets the task's code-segment offset (matching
		// the walker's own relocation) and the occupancy ID its
		// run-wide dictionary base. That removes two lookups and two
		// adds from every port of every simulated cycle.
		instrs := plans[i].Instrs
		for j := range instrs {
			instrs[j].Addr += uint64(i+1) << 32
			instrs[j].OccID += int32(totalOccs)
		}
		plis[i] = instrs
		totalOccs += plans[i].NumOccs
	}

	sel, err := cfg.selector()
	if err != nil {
		return nil, err
	}
	if cfg.TimesliceCycles <= 0 {
		cfg.TimesliceCycles = 1_000_000
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 400 * cfg.InstrLimit
	}
	var ic, dc *cache.Cache
	if !cfg.PerfectMemory {
		// Validate checked both geometries, so New cannot fail here.
		ic, _ = cache.New(cfg.ICache)
		dc, _ = cache.New(cfg.DCache)
	}
	for _, t := range tasks {
		if err := t.Prog.Validate(&cfg.Machine); err != nil {
			return nil, fmt.Errorf("sim: task %s: %w", t.Name, err)
		}
	}
	// Every valid machine packs; the error is a guard, not a path.
	plim, ok := merge.PackLimits(&cfg.Machine)
	if !ok {
		return nil, fmt.Errorf("sim: machine %v exceeds the packed merge limits", cfg.Machine)
	}
	// Pack the occupancy dictionary the merge stage selects from. Every
	// task validated against the machine, and an occupancy that fits a
	// valid machine always packs, so the error is a guard, not a path.
	pd := make([]merge.PackedOcc, totalOccs)
	for i := range plis {
		for j := range plis[i] {
			pi := &plis[i][j]
			po, ok := merge.PackOcc(&pi.Occ)
			if !ok {
				return nil, fmt.Errorf("sim: task %s: occupancy %v exceeds the packed merge limits", tasks[i].Name, pi.Occ)
			}
			pd[pi.OccID] = po
		}
	}

	l := &lane{
		cfg:       cfg,
		m:         cfg.Machine,
		sel:       sel,
		lone:      !sel.Stateful(),
		ic:        ic,
		dc:        dc,
		plans:     plans,
		plis:      plis,
		walkers:   make([]*program.Walker, nt),
		cur:       make([]int32, nt),
		readyAt:   make([]int64, nt),
		fetched:   make([]bool, nt),
		done:      make([]bool, nt),
		stats:     make([]ThreadStats, nt),
		running:   make([]int, cfg.Contexts),
		pool:      make([]int, 0, nt),
		osRng:     rng{s: osSeed(&cfg)},
		slicing:   nt > cfg.Contexts,
		nCtx:      cfg.Contexts,
		nextSlice: cfg.TimesliceCycles,
		rotMask:   -1,
		fixedPrio: cfg.FixedPriority,
		candID:    make([]int32, cfg.Contexts),
		ports:     make([]int, cfg.Contexts),
		pd:        pd,
		plim:      plim,
		res: &Result{
			MergeHist:  make([]int64, cfg.Contexts+1),
			IssueWidth: cfg.Machine.TotalIssueWidth(),
		},
	}
	if cfg.Contexts&(cfg.Contexts-1) == 0 {
		l.rotMask = int64(cfg.Contexts - 1)
	}
	for i, t := range tasks {
		l.walkers[i] = newTaskWalker(&cfg, i, t)
		l.stats[i].Name = t.Name
		l.pool = append(l.pool, i)
	}
	for i := range l.running {
		l.running[i] = -1
	}
	l.schedule()
	return l.finalize(l.run()), nil
}

// RunBatch runs each config through Run on the shared task list and
// returns the Results in config order; an error names the failing
// config's index. It is kept only because the benchmark harness's
// probe calls it; new code calls Run.
func RunBatch(cfgs []Config, tasks []Task) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Run(cfg, tasks)
		if err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
		results[i] = res
	}
	return results, nil
}

// run is the cycle loop: it steps the lane at its wake cycle until a
// thread retires its budget or MaxCycles elapses, and returns the
// run's cycle count.
//
//vliw:hotpath
func (l *lane) run() int64 {
	for {
		c := l.wakeAt
		if c >= l.cfg.MaxCycles {
			// Timed out: the run ends at exactly MaxCycles.
			return l.cfg.MaxCycles
		}
		l.step(c)
		if l.finished {
			// The finishing cycle counts: the wake cycle is one past it
			// (a burst may finish after c).
			return l.wakeAt
		}
	}
}

// schedule returns running tasks to the pool, then draws random
// replacements (the paper picks replacement threads at random for
// fairness).
//
// The pool delete deliberately stays the order-preserving O(n)
// copy-down, not an O(1) swap-remove: the drawn index k comes from the
// OS RNG, so which *task* a draw selects depends on the pool's element
// order. Swap-remove would permute that order, pick different
// replacement threads for the same seed, and break both bit-identical
// reproducibility across versions and the refsim differential oracle.
// The pool holds at most len(tasks) entries and schedule runs once per
// timeslice, so the O(n) delete is irrelevant to throughput.
//
//vliw:hotpath
func (l *lane) schedule() {
	for ctx, ti := range l.running {
		if ti >= 0 && !l.done[ti] {
			l.pool = append(l.pool, ti)
		}
		l.running[ctx] = -1
	}
	for ctx := 0; ctx < l.cfg.Contexts && len(l.pool) > 0; ctx++ {
		k := l.osRng.intn(len(l.pool))
		l.running[ctx] = l.pool[k]
		l.pool = append(l.pool[:k], l.pool[k+1:]...)
	}
}

// nextEvent returns the earliest cycle after now at which a candidate
// can reappear among the running threads other than task skip (-1
// skips none): the soonest readyAt (a thread whose stall already
// elapsed counts as now+1), the next timeslice boundary when
// descheduled tasks exist, or MaxCycles. With skip = -1, every context
// stays candidate-free between now and that cycle, so the lane's state
// cannot change — the fast-forward invariant DESIGN.md spells out. With
// skip = ti it is the horizon of ti's lone-candidate burst.
//
//vliw:hotpath
func (l *lane) nextEvent(now int64, skip int) int64 {
	next := l.cfg.MaxCycles
	if l.slicing && l.nextSlice < next {
		// nextSlice is maintained by step: when this runs it is always
		// the first boundary after now, so no division is needed.
		next = l.nextSlice
	}
	for _, ti := range l.running {
		if ti < 0 || ti == skip || l.done[ti] {
			continue
		}
		e := l.readyAt[ti]
		if e <= now {
			e = now + 1
		}
		if e < next {
			next = e
		}
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// idle bulk-accounts a candidate-free cycle and every cycle up to the
// lane's next event, then sleeps the lane until it: the stall
// fast-forward. Selectors are pure on empty input (Selector contract),
// so skipping their SelectPacked calls cannot change later selections.
//
//vliw:hotpath
func (l *lane) idle(cycle int64) {
	next := l.nextEvent(cycle, -1)
	span := next - cycle
	l.res.MergeHist[0] += span
	l.res.EmptyCycles += span
	l.ffSpans++
	l.ffCycles += span
	l.wakeAt = next
}

// step executes cycle `cycle`, one iteration of refsim's cycle loop: timeslice scheduling, priority
// rotation, candidate gathering (plan-driven — the occupancy and fetch
// address come from the flat PlannedInstr record), merge selection,
// retirement. An all-stalled cycle opens a fast-forward span (idle); a
// lone candidate under a stateless selector opens a burst.
//
//vliw:hotpath
func (l *lane) step(cycle int64) {
	if l.slicing && cycle == l.nextSlice {
		l.schedule()
		l.nextSlice = cycle + l.cfg.TimesliceCycles
	}
	nCtx := l.nCtx
	rot := 0
	if !l.fixedPrio {
		if l.rotMask >= 0 {
			rot = int(cycle & l.rotMask)
		} else {
			rot = int(cycle % int64(nCtx))
		}
	}
	var valid uint32
	for p := 0; p < nCtx; p++ {
		ctx := p + rot
		if ctx >= nCtx {
			ctx -= nCtx
		}
		l.ports[p] = ctx
		ti := l.running[ctx]
		if ti < 0 {
			continue
		}
		if l.done[ti] || l.readyAt[ti] > cycle {
			continue
		}
		pi := &l.plis[ti][l.cur[ti]]
		if !l.fetched[ti] && !l.fetch(pi.Addr, ti, cycle) {
			continue
		}
		l.candID[p] = pi.OccID
		valid |= 1 << uint(p)
	}

	if valid == 0 {
		l.idle(cycle)
		return
	}
	if l.lone && valid&(valid-1) == 0 {
		// Every stateless kind selects a lone candidate whole (a tree
		// node passes a single non-empty input through unmerged, and
		// IMT issues it), so no evaluator call is needed.
		l.burst(l.running[l.ports[bits.TrailingZeros32(valid)]], cycle)
		return
	}

	mask, ops := l.sel.SelectPacked(l.pd, &l.plim, l.candID, valid)
	l.res.MergeHist[bits.OnesCount32(mask)]++
	if ops == 0 {
		l.res.EmptyCycles++
	}
	for p := 0; p < nCtx; p++ {
		if valid&(1<<uint(p)) == 0 {
			continue
		}
		ti := l.running[l.ports[p]]
		l.stats[ti].ScheduledCycles++
		if mask&(1<<uint(p)) == 0 {
			l.stats[ti].ConflictCycles++
			continue
		}
		n, done := l.retire(l.walkers[ti], l.plans[ti], ti, cycle)
		l.issued(ti, 1, n)
		if done {
			l.done[ti] = true
			l.finished = true
		}
	}
	l.wakeAt = cycle + 1
}

// burst issues task ti, the lone candidate of `cycle`, then keeps
// issuing it alone for as long as it stays ready and its fetches hit,
// up to the horizon h = nextEvent(cycle, ti). Before h no other thread
// can become a candidate and no timeslice boundary falls, so each of
// those cycles is again a lone-candidate cycle whose selection is ti
// whole (DESIGN.md, "Lone-candidate bursts"). Each burst cycle
// retires, performs its data accesses and updates ti's stall clock
// exactly as step would; the per-cycle counters are added once per
// burst. The burst ends when ti finishes or reaches h (the lane wakes
// at the next cycle), or when, before h, ti stalls or its fetch misses
// the I-cache: that cycle has no candidate, so the burst opens the
// fast-forward span step would open.
//
//vliw:hotpath
func (l *lane) burst(ti int, cycle int64) {
	h := l.nextEvent(cycle, ti)
	w, pl := l.walkers[ti], l.plans[ti]
	start := cycle
	var ops, empty int64
	for {
		if pl.Instrs[l.cur[ti]].Occ.Ops == 0 {
			empty++
		}
		n, done := l.retire(w, pl, ti, cycle)
		ops += n
		cycle++
		if done {
			l.done[ti] = true
			l.finished = true
		}
		if done || cycle >= h {
			l.wakeAt = cycle
			break
		}
		if l.readyAt[ti] > cycle || !l.fetch(pl.Instrs[l.cur[ti]].Addr, ti, cycle) {
			l.idle(cycle)
			break
		}
	}
	n := cycle - start
	l.res.MergeHist[1] += n
	l.res.EmptyCycles += empty
	l.stats[ti].ScheduledCycles += n
	l.issued(ti, n, ops)
	l.burstCycles += n
}

// fetch marks task ti's current instruction fetched at cycle and looks
// its line up in the I-cache, reporting whether the instruction can
// issue this cycle. A miss stalls the thread for the miss penalty; the
// line arrives during the stall, so the retry needs no second access.
//
//vliw:hotpath
func (l *lane) fetch(addr uint64, ti int, cycle int64) bool {
	l.fetched[ti] = true
	if l.ic != nil && !l.ic.Access(addr, false) {
		pen := int64(l.ic.MissPenalty())
		l.readyAt[ti] = cycle + pen
		l.stats[ti].StallFetch += pen
		return false
	}
	return true
}

// retire retires task ti's current instruction at cycle: it advances
// the walker w over plan pl, performs the instruction's data accesses
// and sets the thread's stall clock. It returns the instruction's
// operation count and whether the thread hit its instruction budget
// (ending the run); the caller accounts the retire through issued. It
// is driven by the task's plan: the memory-op recipe comes precomputed
// from the PlannedInstr, and the successor is a flat index instead of
// walker block/idx bookkeeping.
//
//vliw:hotpath
func (l *lane) retire(w *program.Walker, pl *program.Plan, ti int, cycle int64) (ops int64, done bool) {
	f := l.cur[ti]
	next, mem, taken := w.RetirePlan(pl, f)
	l.cur[ti] = next
	l.fetched[ti] = false

	var memStall, brStall int64
	for i := range mem {
		if l.dc != nil && !l.dc.Access(mem[i].Addr, mem[i].Store) {
			memStall += int64(l.dc.MissPenalty())
		}
	}
	if taken {
		brStall = int64(l.m.BranchPenalty)
	}
	// Both a blocking miss and a squash stall the front end; they
	// overlap, so the thread resumes after the longer of the two.
	stall := memStall
	if brStall > stall {
		stall = brStall
	}
	if stall > 0 {
		l.readyAt[ti] = cycle + 1 + stall
		l.stats[ti].StallMem += memStall
		l.stats[ti].StallBranch += brStall
	}
	return int64(pl.Instrs[f].Ops), w.Retired >= l.cfg.InstrLimit
}

// issued accounts n retired instructions carrying ops operations to
// task ti and to the run.
//
//vliw:hotpath
func (l *lane) issued(ti int, n, ops int64) {
	l.stats[ti].Instrs += n
	l.stats[ti].Ops += ops
	l.res.Instrs += n
	l.res.Ops += ops
}

// finalize closes the lane's run, which lasted the given cycles.
func (l *lane) finalize(cycles int64) *Result {
	res := l.res
	res.Cycles = cycles
	res.TimedOut = !l.finished
	if res.Cycles > 0 {
		res.IPC = float64(res.Ops) / float64(res.Cycles)
	}
	for i := range l.stats {
		res.Threads = append(res.Threads, l.stats[i])
	}
	if l.ic != nil {
		res.ICache = l.ic.Stats
	}
	if l.dc != nil {
		res.DCache = l.dc.Stats
	}
	recordRunMetrics(res, l.ffSpans, l.ffCycles, l.burstCycles)
	return res
}
