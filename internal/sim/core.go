// The cycle loop: Run advances one job through its cycles, one
// iteration of refsim's cycle loop per step. Prepare (sim.go) builds
// the run's set-up, the step refsim shares; the job's compiled
// programs are then flattened once into program.Plan tables, and the
// job keeps its own compiled selector and one record of hot state per
// thread. The differential tests in diff_test.go, burst_test.go and
// conformance_test.go, and the small-scope domain of smallscope_test.go,
// enforce bit-identity against refsim.
//
// Scheduling: the lane carries a wake cycle. An active lane wakes at
// cycle+1 (or, after a lone-candidate burst, at the cycle after the
// burst's last); an all-stalled lane bulk-accounts its stall span (the
// stall fast-forward) and sleeps until its next event. A burst rides
// out its own thread's stalls and fetch misses that end before its
// horizon, booking each as the fast-forward span step would have
// opened.
//
// Selection runs on a packed occupancy dictionary (see
// merge.SelectPacked): the gather records dictionary IDs, and the merge
// stage answers cluster disjointness and SMT slot capacity with a few
// 64-bit SWAR operations instead of per-cluster loops over Occupancy
// structs. Fetches and retires run in port order, since the caches see
// their accesses in that order.
//
// Fetch: every fetch address is a planned instruction's, known at
// set-up, so pinFetches pins the I-cache lines of the sets that hold no
// more lines than ways (cache.Cache.Pin). Those sets can never evict: a
// fetch from one is an access count and a resident bit (Touch), and
// only lines of sets that can evict take Access's tag search and LRU
// update.

package sim

import (
	"fmt"
	"math"
	"math/bits"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/program"
)

// thread is one task's hot state, kept in one record so the gather,
// the retire and a burst touch one line per thread instead of loads
// from parallel per-task slices.
type thread struct {
	// readyAt is the first cycle the thread may issue again (its stall
	// clock).
	readyAt int64
	// cur is the flat plan index of the current instruction, pi its
	// planned record, and fetched reports whether its I-cache access is
	// done.
	cur     int32
	fetched bool
	pi      *program.PlannedInstr
	// instrs is plan.Instrs: a PlannedInstr is one hop away.
	instrs []program.PlannedInstr
	plan   *program.Plan
	walker *program.Walker
	stats  ThreadStats
}

// lane is one run of the cycle loop: the job's full state (selector,
// caches, threads, OS scheduler, result accumulators) plus the wake
// cycle the loop schedules it by.
type lane struct {
	cfg Config
	m   isa.Machine
	sel *merge.Compiled
	// lone is set when sel is stateless, so a cycle with one candidate
	// opens a burst without calling it (every stateless kind selects a
	// lone candidate whole); BMT must see every non-empty call.
	lone   bool
	ic, dc *cache.Cache

	threads []thread
	// vacant is the record of a context that runs no task: its readyAt
	// of math.MaxInt64 keeps it out of every gather and event.
	vacant thread

	// OS scheduling state: running maps hardware contexts to task
	// indices (-1 = idle); pool holds descheduled tasks. A run ends in
	// the cycle its first thread retires its budget, so no finished task
	// is ever scheduled again and the loop keeps no per-task done flag.
	running []int
	pool    []int
	// ctxs maps contexts to thread records, written twice over (ctxs[c]
	// and ctxs[c+nCtx] are the same record), so the contexts in port
	// order under rotation rot are the slice ctxs[rot:rot+nCtx].
	ctxs    []*thread
	osRng   OSRand
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

	// Per-cycle buffers, reused across every cycle of the run: cand[p]
	// is the thread at merge port p and candID[p] the dictionary ID of
	// its instruction (both meaningful only when bit p of the cycle's
	// valid mask is set). The merge stage never touches an Occupancy.
	cand   []*thread
	candID []int32

	// Packed selection state: pd is the run's packed occupancy
	// dictionary and plim holds the machine's SWAR limit constants.
	pd   []merge.PackedOcc
	plim merge.PackedLimits

	res *Result
	// ffSpans/ffCycles count stall fast-forward spans and the cycles
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
	s, err := Prepare(cfg, tasks)
	if err != nil {
		return nil, err
	}
	cfg = s.Config
	// Prepare built the scheme's reference selector, so this is a
	// guard, not a path.
	sel, err := s.Scheme.Selector(cfg.Contexts)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	nt := len(tasks)
	threads := make([]thread, nt)
	totalOccs := 0
	for i, t := range tasks {
		pl := program.NewPlan(t.Prog)
		// Bake the per-task constants into the fresh plan's records: the
		// fetch address gets the task's code-segment offset (matching
		// the walker's own relocation) and the occupancy ID its
		// run-wide dictionary base. That removes two lookups and two
		// adds from every port of every simulated cycle.
		instrs := pl.Instrs
		for j := range instrs {
			instrs[j].Addr += uint64(i+1) << 32
			instrs[j].OccID += int32(totalOccs)
		}
		totalOccs += pl.NumOccs
		threads[i] = thread{
			pi:     &instrs[0],
			instrs: instrs,
			plan:   pl,
			walker: s.Walker(i),
			stats:  ThreadStats{Name: t.Name},
		}
	}
	ic, dc := s.Caches()
	if ic != nil {
		if err := pinFetches(ic, threads); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
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
	for i := range threads {
		for j := range threads[i].instrs {
			pi := &threads[i].instrs[j]
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
		threads:   threads,
		vacant:    thread{readyAt: math.MaxInt64},
		running:   make([]int, cfg.Contexts),
		pool:      make([]int, 0, nt),
		ctxs:      make([]*thread, 2*cfg.Contexts),
		osRng:     s.OS,
		slicing:   nt > cfg.Contexts,
		nCtx:      cfg.Contexts,
		nextSlice: cfg.TimesliceCycles,
		rotMask:   -1,
		fixedPrio: cfg.FixedPriority,
		cand:      make([]*thread, cfg.Contexts),
		candID:    make([]int32, cfg.Contexts),
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
	for i := range tasks {
		l.pool = append(l.pool, i)
	}
	for i := range l.running {
		l.running[i] = -1
	}
	l.schedule()
	return l.finalize(l.run()), nil
}

// pinFetches pins the I-cache lines no run can evict: every fetch
// address is a relocated planned instruction's, so the cache sees each
// one before the first cycle (cache.Cache.Pin). Each planned record
// then carries its line's pinned index, or -1 for a line whose set can
// evict, and fetch picks Touch or Access by it.
func pinFetches(ic *cache.Cache, threads []thread) error {
	n := 0
	for i := range threads {
		n += len(threads[i].instrs)
	}
	addrs := make([]uint64, 0, n)
	for i := range threads {
		for j := range threads[i].instrs {
			addrs = append(addrs, threads[i].instrs[j].Addr)
		}
	}
	if err := ic.Pin(addrs); err != nil {
		return err
	}
	for i := range threads {
		for j := range threads[i].instrs {
			pi := &threads[i].instrs[j]
			pi.Line = ic.PinnedLine(pi.Addr)
		}
	}
	return nil
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
// fairness), and maps each context to its thread's record.
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
		if ti >= 0 {
			l.pool = append(l.pool, ti)
		}
		l.running[ctx] = -1
	}
	for ctx := 0; ctx < l.nCtx && len(l.pool) > 0; ctx++ {
		k := l.osRng.Intn(len(l.pool))
		l.running[ctx] = l.pool[k]
		l.pool = append(l.pool[:k], l.pool[k+1:]...)
	}
	for ctx, ti := range l.running {
		t := &l.vacant
		if ti >= 0 {
			t = &l.threads[ti]
		}
		l.ctxs[ctx], l.ctxs[ctx+l.nCtx] = t, t
	}
}

// nextEvent returns the earliest cycle after now at which a candidate
// can reappear among the running threads other than skip (nil skips
// none): the soonest readyAt (a thread whose stall already elapsed
// counts as now+1), the next timeslice boundary when descheduled tasks
// exist, or MaxCycles. With skip = nil, every context stays
// candidate-free between now and that cycle, so the lane's state cannot
// change — the fast-forward invariant DESIGN.md spells out. With skip =
// t it is the horizon of t's lone-candidate burst. Both bounds are
// later than now (the loop never steps at or past MaxCycles, and step
// moves nextSlice past a boundary it reaches), so the result is too.
//
//vliw:hotpath
func (l *lane) nextEvent(now int64, skip *thread) int64 {
	next := l.cfg.MaxCycles
	if l.slicing {
		// nextSlice is maintained by step: when this runs it is always
		// the first boundary after now, so no division is needed.
		next = min(next, l.nextSlice)
	}
	for _, t := range l.ctxs[:l.nCtx] {
		if t != skip {
			next = min(next, max(t.readyAt, now+1))
		}
	}
	return next
}

// empty bulk-accounts the candidate-free cycles [from, to) as one stall
// fast-forward span. Selectors are pure on empty input (Selector
// contract), so skipping their SelectPacked calls cannot change later
// selections.
//
//vliw:hotpath
func (l *lane) empty(from, to int64) {
	span := to - from
	l.res.MergeHist[0] += span
	l.res.EmptyCycles += span
	l.ffSpans++
	l.ffCycles += span
}

// step executes cycle `cycle`, one iteration of refsim's cycle loop:
// timeslice scheduling, priority rotation, candidate gathering
// (plan-driven — the occupancy and fetch address come from the flat
// PlannedInstr record), merge selection, retirement. An all-stalled
// cycle opens a fast-forward span that sleeps the lane until its next
// event; a lone candidate under a stateless selector opens a burst.
//
//vliw:hotpath
func (l *lane) step(cycle int64) {
	if l.slicing && cycle == l.nextSlice {
		l.schedule()
		l.nextSlice = cycle + l.cfg.TimesliceCycles
	}
	rot := 0
	if !l.fixedPrio {
		if l.rotMask >= 0 {
			rot = int(cycle & l.rotMask)
		} else {
			rot = int(cycle % int64(l.nCtx))
		}
	}
	var valid uint32
	for p, t := range l.ctxs[rot : rot+l.nCtx] {
		if t.readyAt > cycle {
			continue
		}
		pi := t.pi
		if !t.fetched && !l.fetch(t, pi, cycle) {
			continue
		}
		l.cand[p] = t
		l.candID[p] = pi.OccID
		valid |= 1 << uint(p)
	}

	if valid == 0 {
		next := l.nextEvent(cycle, nil)
		l.empty(cycle, next)
		l.wakeAt = next
		return
	}
	if l.lone && valid&(valid-1) == 0 {
		// Every stateless kind selects a lone candidate whole (a tree
		// node passes a single non-empty input through unmerged, and
		// IMT issues it), so no evaluator call is needed.
		l.burst(l.cand[bits.TrailingZeros32(valid)], cycle)
		return
	}

	mask, ops := l.sel.SelectPacked(l.pd, &l.plim, l.candID, valid)
	l.res.MergeHist[bits.OnesCount32(mask)]++
	if ops == 0 {
		l.res.EmptyCycles++
	}
	for v := valid &^ mask; v != 0; v &= v - 1 {
		l.cand[bits.TrailingZeros32(v)].stats.ConflictCycles++
	}
	// Retire in port order: the D-cache sees the accesses in the order
	// refsim makes them.
	for v := mask; v != 0; v &= v - 1 {
		_, done := l.retire(l.cand[bits.TrailingZeros32(v)], cycle)
		l.finished = l.finished || done
	}
	l.wakeAt = cycle + 1
}

// burst issues thread t, the lone candidate of `cycle`, then keeps
// issuing it alone up to the horizon h = nextEvent(cycle, t). Before h
// no other thread can become a candidate and no timeslice boundary
// falls, so each of those cycles has t as its lone candidate (issued
// whole) or no candidate at all (DESIGN.md, "Lone-candidate bursts").
// Each burst cycle retires, performs its data accesses and updates t's
// stall clock exactly as step would, and the per-cycle counters are
// added once per burst.
//
// The burst rides out t's own stalls: when t stalls (a D-cache miss or a
// taken-branch squash) or its fetch misses the I-cache, and it can issue
// again before h, the empty cycles in between are booked as the
// fast-forward span step would open, and the burst carries on at the
// cycle t issues. A fetch miss empties its own cycle even at zero miss
// penalty: the fetched instruction issues at max(readyAt, cycle+1). The
// burst ends when t finishes, reaches h, or stalls until h or later
// (the span up to h is booked); the lane wakes at the cycle after its
// last.
//
//vliw:hotpath
func (l *lane) burst(t *thread, cycle int64) {
	h := l.nextEvent(cycle, t)
	var n, empty int64
issue:
	for {
		ops, done := l.retire(t, cycle)
		n++
		if ops == 0 {
			empty++
		}
		cycle++
		if done {
			l.finished = true
			break
		}
		if cycle >= h {
			break
		}
		// Ride out t's own stall or fetch miss: wait is the cycle t can
		// issue next, and the cycles before it are empty.
		for {
			var wait int64
			switch {
			case t.readyAt > cycle:
				wait = t.readyAt // a stall: t fetches when it ends
			case t.fetched || l.fetch(t, t.pi, cycle):
				continue issue
			default:
				// A fetch miss empties its own cycle, even at zero
				// miss penalty.
				wait = max(t.readyAt, cycle+1)
			}
			if wait >= h {
				l.empty(cycle, h)
				cycle = h
				break issue
			}
			l.empty(cycle, wait)
			cycle = wait
		}
	}
	l.wakeAt = cycle
	l.res.MergeHist[1] += n
	l.res.EmptyCycles += empty
	l.burstCycles += n
}

// fetch marks thread t's current instruction pi fetched at cycle and
// looks its line up in the I-cache, reporting whether the instruction
// can issue this cycle: a pinned line (pinFetches) by Touch, any other
// by Access. A miss stalls the thread for the miss penalty; the line
// arrives during the stall, so the retry needs no second access.
//
//vliw:hotpath
func (l *lane) fetch(t *thread, pi *program.PlannedInstr, cycle int64) bool {
	t.fetched = true
	switch {
	case l.ic == nil:
		return true
	case pi.Line >= 0:
		if l.ic.Touch(pi.Line) {
			return true
		}
	case l.ic.Access(pi.Addr, false):
		return true
	}
	pen := int64(l.ic.MissPenalty())
	t.readyAt = cycle + pen
	t.stats.StallFetch += pen
	return false
}

// retire retires thread t's current instruction at cycle: it draws each
// memory operation's address and performs its D-cache access in one
// pass, advances the walker over the plan and sets the thread's stall
// clock, and counts the instruction and its operations to t. It returns
// the operation count and whether the thread hit its instruction budget
// (ending the run).
//
//vliw:hotpath
func (l *lane) retire(t *thread, cycle int64) (ops int64, done bool) {
	w, pi := t.walker, t.pi
	var memStall, brStall int64
	for i := range pi.Mem {
		m := &pi.Mem[i]
		addr := w.MemAddr(m)
		if l.dc != nil && !l.dc.Access(addr, m.Store) {
			memStall += int64(l.dc.MissPenalty())
		}
	}
	next, taken := w.RetirePlan(t.plan, t.cur)
	t.cur, t.pi = next, &t.instrs[next]
	t.fetched = false
	if taken {
		brStall = int64(l.m.BranchPenalty)
	}
	// Both a blocking miss and a squash stall the front end; they
	// overlap, so the thread resumes after the longer of the two.
	if stall := max(memStall, brStall); stall > 0 {
		t.readyAt = cycle + 1 + stall
		t.stats.StallMem += memStall
		t.stats.StallBranch += brStall
	}
	ops = int64(pi.Ops)
	t.stats.Instrs++
	t.stats.Ops += ops
	return ops, w.Retired >= l.cfg.InstrLimit
}

// finalize closes the lane's run, which lasted the given cycles.
func (l *lane) finalize(cycles int64) *Result {
	res := l.res
	res.Cycles = cycles
	res.TimedOut = !l.finished
	for i := range l.threads {
		st := l.threads[i].stats
		// Every candidate cycle either issues one instruction or is a
		// conflict, so the candidate cycles need no counter of their own,
		// and the run's totals are the threads'.
		st.ScheduledCycles = st.Instrs + st.ConflictCycles
		res.Threads = append(res.Threads, st)
		res.Instrs += st.Instrs
		res.Ops += st.Ops
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Ops) / float64(res.Cycles)
	}
	var resident int64
	if l.ic != nil {
		res.ICache = l.ic.Stats
		resident = l.ic.Touches()
	}
	if l.dc != nil {
		res.DCache = l.dc.Stats
	}
	recordRunMetrics(res, l.ffSpans, l.ffCycles, l.burstCycles, resident)
	return res
}
