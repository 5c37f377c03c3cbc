// Batched execution: one cycle loop advancing N independent jobs
// ("lanes") that share the same task list. Jobs in a batch share the
// compiled programs — flattened once into program.Plan tables — while
// every lane keeps its own selector, caches, walkers and OS scheduler,
// so a lane at global cycle c behaves exactly as the same job would at
// its own cycle c running alone. Run is the one-lane case; the
// differential tests in batch_test.go, diff_test.go and
// conformance_test.go enforce bit-identity against refsim.
//
// Layout: the per-task context state (readyAt / fetched / done /
// current-instruction vectors, per-thread stats) lives in flat
// struct-of-arrays backing allocated once per batch and subsliced per
// lane, so the cycle loop walks contiguous memory instead of chasing
// per-task heap objects.
//
// Scheduling: the driver is epoch-major (see batchEpoch) — each live
// lane executes its own consecutive cycles until it sleeps past the
// epoch boundary, finishes or times out, then the next lane runs its
// epoch. Lanes carry a wake cycle: an active lane wakes at cycle+1,
// an all-stalled lane bulk-accounts its stall span (the stall
// fast-forward) and sleeps until its next event. When every
// surviving lane sleeps past the boundary, the clock jumps straight to
// the minimum wake — the batch-wide fast-forward the telemetry counts.
//
// Selection runs on a batch-wide packed occupancy dictionary (see
// merge.SelectPacked): the gather records dictionary IDs, and the merge
// stage answers cluster disjointness and SMT slot capacity with a few
// 64-bit SWAR operations instead of per-cluster loops over Occupancy
// structs.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/program"
)

// selEmptyOps flags a packed selection whose merged word retires zero
// operations; the low bits are the selected-port mask (selector widths
// are far below 31 ports, so the flag bit can never collide).
const selEmptyOps = uint32(1) << 31

// lane is one job of a batch: the full per-job state (selector,
// caches, walkers, OS scheduler, result accumulators) plus the wake
// cycle the driver schedules it by. The context-state slices alias the
// batch's shared SoA backing.
type lane struct {
	cfg Config
	m   isa.Machine
	sel *merge.Compiled
	// lone is set when sel is stateless, so a cycle with one candidate
	// may skip it (every stateless kind selects a lone candidate whole);
	// BMT must see every non-empty call.
	lone   bool
	ic, dc *cache.Cache

	// Per-task context state, subsliced from the batch SoA backing.
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

	// Packed selection state: pd aliases the batch-wide packed
	// occupancy dictionary and plim holds the machine's SWAR limit
	// constants.
	pd   []merge.PackedOcc
	plim merge.PackedLimits

	res *Result
	// ffSpans/ffCycles count stall fast-forward jumps and the cycles
	// they skipped, flushed to the telemetry counters once, in finalize.
	ffSpans, ffCycles int64

	// wakeAt is the next global cycle at which this lane must step.
	wakeAt   int64
	finished bool
	endCycle int64
}

// batchCore is the shared per-batch state: the task list, the compiled
// plans (shared across lanes), the occupancy ID bases that globalise
// per-plan IDs, and the driver's live-lane list and telemetry
// accumulators.
type batchCore struct {
	tasks   []Task
	plans   []*program.Plan
	occBase []int32
	codeOff []uint64
	// plis[ti] is plans[ti].Instrs, flattened to one slice-header array
	// so the gather loop reaches a PlannedInstr in a single hop.
	plis  [][]program.PlannedInstr
	lanes []*lane
	live  []*lane
	// occCycles[k] accumulates cycles during which k lanes were live;
	// reconstructed exactly from the lanes' end cycles after the loop
	// (occupancy over time is a step function of the sorted end cycles)
	// and flushed into the lane-occupancy histogram at finalize.
	occCycles []int64
	// bFFSpans/bFFCycles count batch-wide fast-forward jumps (every
	// live lane sleeping past an epoch boundary) and the cycles they
	// skipped.
	bFFSpans, bFFCycles int64
}

// batchEpoch is the driver's scheduling quantum: each live lane is
// advanced through up to this many consecutive cycles before the next
// lane runs. Lanes share no mutable state, so running one lane's
// cycles back to back cannot change anything it computes — it only
// keeps the lane's working set (walkers, cache tag arrays, context
// state) hot instead of re-faulting it every simulated cycle, which is
// where a cycle-interleaved driver loses to running jobs one by one. The epoch
// also bounds clock skew between lanes: at every epoch boundary the
// whole batch has reached the same cycle, which is what makes the
// batch-wide fast-forward (jumping the shared clock over spans where
// every lane sleeps) well defined.
const batchEpoch = 4096

// RunBatch simulates len(cfgs) independent jobs that share one task
// list, returning one Result per config in order. Every Result is
// bit-identical to Run(cfgs[i], tasks) and to refsim.Run(cfgs[i],
// tasks): batching changes how cycles are interleaved across jobs,
// never what any job computes. A config that fails Validate, or a
// task that does not fit a lane's machine, fails the whole call with
// an error naming the lane. Configs
// may differ freely (scheme, contexts, caches, seeds, limits); only
// the tasks must be common, which is what the sweep engine's
// shape-grouping guarantees.
func RunBatch(cfgs []Config, tasks []Task) ([]*Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("sim: no tasks")
	}
	b := &batchCore{
		tasks:     tasks,
		plans:     make([]*program.Plan, len(tasks)),
		occBase:   make([]int32, len(tasks)),
		codeOff:   make([]uint64, len(tasks)),
		lanes:     make([]*lane, len(cfgs)),
		occCycles: make([]int64, len(cfgs)+1),
	}
	totalOccs := 0
	for i, t := range tasks {
		if t.Prog == nil {
			return nil, fmt.Errorf("sim: task %d (%s) has no program", i, t.Name)
		}
		b.plans[i] = program.NewPlan(t.Prog)
		b.occBase[i] = int32(totalOccs)
		b.codeOff[i] = uint64(i+1) << 32
		totalOccs += b.plans[i].NumOccs
	}
	// Bake the per-task constants into the plan records: the fetch
	// address gets the task's code-segment offset (matching the
	// walker's own relocation) and the occupancy ID its batch-wide
	// dictionary base. Plans are per-task and freshly built per batch,
	// so the bake is free of aliasing — and it removes two lookups and
	// two adds from every port of every simulated cycle.
	b.plis = make([][]program.PlannedInstr, len(tasks))
	for i := range tasks {
		instrs := b.plans[i].Instrs
		for j := range instrs {
			instrs[j].Addr += b.codeOff[i]
			instrs[j].OccID += b.occBase[i]
		}
		b.plis[i] = instrs
	}
	nt := len(tasks)
	// SoA backing for the per-[job][task] context state.
	curAll := make([]int32, len(cfgs)*nt)
	readyAll := make([]int64, len(cfgs)*nt)
	fetchedAll := make([]bool, len(cfgs)*nt)
	doneAll := make([]bool, len(cfgs)*nt)
	statsAll := make([]ThreadStats, len(cfgs)*nt)

	for li, cfg := range cfgs {
		cfg, sel, ic, dc, err := setupRun(cfg, tasks)
		if err != nil {
			return nil, &laneError{lane: li, err: err}
		}
		// Every valid machine packs; the error is a guard, not a path.
		plim, ok := merge.PackLimits(&cfg.Machine)
		if !ok {
			return nil, &laneError{lane: li, err: fmt.Errorf("sim: machine %v exceeds the packed merge limits", cfg.Machine)}
		}
		l := &lane{
			cfg:       cfg,
			m:         cfg.Machine,
			sel:       sel,
			lone:      !sel.Stateful(),
			ic:        ic,
			dc:        dc,
			walkers:   make([]*program.Walker, nt),
			cur:       curAll[li*nt : (li+1)*nt],
			readyAt:   readyAll[li*nt : (li+1)*nt],
			fetched:   fetchedAll[li*nt : (li+1)*nt],
			done:      doneAll[li*nt : (li+1)*nt],
			stats:     statsAll[li*nt : (li+1)*nt],
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
		b.lanes[li] = l
	}

	// Pack the batch-wide occupancy dictionary the merge stage selects
	// from. Dictionary IDs are already global, so one table serves every
	// lane. Every lane validated every task against its machine, and an
	// occupancy that fits a valid machine always packs, so the error is
	// a guard, not a path.
	pd := make([]merge.PackedOcc, totalOccs)
	for i := range b.plis {
		for j := range b.plis[i] {
			pi := &b.plis[i][j]
			po, ok := merge.PackOcc(&pi.Occ)
			if !ok {
				return nil, fmt.Errorf("sim: task %s: occupancy %v exceeds the packed merge limits", tasks[i].Name, pi.Occ)
			}
			pd[pi.OccID] = po
		}
	}
	for _, l := range b.lanes {
		l.pd = pd
	}

	b.live = make([]*lane, len(b.lanes))
	copy(b.live, b.lanes)
	b.runLoop()
	b.accountOccupancy()

	results := make([]*Result, len(b.lanes))
	for i, l := range b.lanes {
		results[i] = l.finalize()
	}
	recordBatchMetrics(b)
	return results, nil
}

// laneError attributes a set-up failure to its batch lane. Run, a
// one-lane batch, unwraps it so its errors carry no lane number.
type laneError struct {
	lane int
	err  error
}

func (e *laneError) Error() string { return fmt.Sprintf("sim: batch lane %d: %v", e.lane, e.err) }
func (e *laneError) Unwrap() error { return e.err }

// runLoop is the batch driver: epoch-major, lane-minor, cycle-inner.
// Each pass gives every live lane one epoch — the lane executes its
// own cycles back to back (lane.wakeAt is always the lane's next
// execution cycle, so the inner loop is cycle-accurate) until it
// sleeps past the epoch boundary, finishes its instruction budget or
// times out at MaxCycles. When every surviving lane's next event lies
// beyond the boundary, the shared clock jumps straight to the minimum
// — the batch-wide fast-forward. Lane order is irrelevant to results:
// lanes share only immutable plans, so the swap-removal cannot affect
// determinism.
//
//vliw:hotpath
func (b *batchCore) runLoop() {
	live := b.live
	var cycle int64
	for len(live) > 0 {
		end := cycle + batchEpoch
		next := int64(math.MaxInt64)
		n := len(live)
		for i := 0; i < n; {
			l := live[i]
			removed := false
			for {
				c := l.wakeAt
				if c >= l.cfg.MaxCycles {
					// Timed out: the run ends at exactly MaxCycles.
					l.endCycle = l.cfg.MaxCycles
					removed = true
					break
				}
				if c >= end {
					break
				}
				if l.nCtx == 1 {
					l.stepSingle(b, c)
				} else {
					l.step(b, c)
				}
				if l.finished {
					// The finishing cycle counts: Cycles = cycle+1.
					l.endCycle = c + 1
					removed = true
					break
				}
			}
			if removed {
				n--
				live[i] = live[n]
				live = live[:n]
				continue
			}
			// The lane's next event is its wake or its timeout,
			// whichever comes first.
			w := l.wakeAt
			if l.cfg.MaxCycles < w {
				w = l.cfg.MaxCycles
			}
			if w < next {
				next = w
			}
			i++
		}
		if n == 0 {
			break
		}
		if next > end {
			// Every live lane slept past the epoch boundary: jump the
			// shared clock over the dead span in one step.
			b.bFFSpans++
			b.bFFCycles += next - end
			cycle = next
		} else {
			cycle = end
		}
	}
	b.live = live
}

// accountOccupancy reconstructs the exact cycle-weighted lane
// occupancy from the lanes' end cycles: a lane is in flight for cycles
// [0, endCycle), so occupancy over time is the step function of the
// end cycles sorted ascending — len(lanes) lanes up to the earliest
// end, one fewer to the next, and so on. This is bit-exact per-cycle
// accounting at O(n log n) per batch instead of bookkeeping in the
// hot loop.
func (b *batchCore) accountOccupancy() {
	ends := make([]int64, len(b.lanes))
	for i, l := range b.lanes {
		ends[i] = l.endCycle
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	var prev int64
	for i, e := range ends {
		if e > prev {
			b.occCycles[len(ends)-i] += e - prev
			prev = e
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
// can reappear: the soonest readyAt among running threads (a thread
// whose stall already elapsed counts as now+1), the next timeslice
// boundary when descheduled tasks exist, or MaxCycles. Between now and
// that cycle every context stays candidate-free, so the lane's state
// cannot change — the fast-forward invariant DESIGN.md spells out.
//
//vliw:hotpath
func (l *lane) nextEvent(now int64) int64 {
	next := l.cfg.MaxCycles
	if l.slicing && l.nextSlice < next {
		// nextSlice is maintained by step: when this runs it is always
		// the first boundary after now, so no division is needed.
		next = l.nextSlice
	}
	for _, ti := range l.running {
		if ti < 0 || l.done[ti] {
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

// step advances a multi-context lane by one cycle at global cycle
// `cycle`, one iteration of refsim's cycle loop: timeslice scheduling,
// priority rotation, candidate gathering (plan-driven — the occupancy
// and fetch address come from the flat PlannedInstr record), merge
// selection, retirement. An all-stalled cycle bulk-accounts the stall
// span up to the next event and sleeps the lane: the stall
// fast-forward. Selectors are pure on empty input (Selector contract),
// so skipping their SelectPacked calls cannot change later selections.
//
//vliw:hotpath
func (l *lane) step(b *batchCore, cycle int64) {
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
		pi := &b.plis[ti][l.cur[ti]]
		if !l.fetched[ti] {
			l.fetched[ti] = true // the line arrives during any stall
			if l.ic != nil && !l.ic.Access(pi.Addr, false) {
				pen := int64(l.ic.MissPenalty())
				l.readyAt[ti] = cycle + pen
				l.stats[ti].StallFetch += pen
				continue
			}
		}
		l.candID[p] = pi.OccID
		valid |= 1 << uint(p)
	}

	if valid == 0 {
		next := l.nextEvent(cycle)
		span := next - cycle
		l.res.MergeHist[0] += span
		l.res.EmptyCycles += span
		l.ffSpans++
		l.ffCycles += span
		l.wakeAt = next
		return
	}

	selv := l.selectCands(valid)
	mask := selv &^ selEmptyOps
	l.res.MergeHist[bits.OnesCount32(mask)]++
	if selv&selEmptyOps != 0 {
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
		if l.retireOne(b, ti, cycle) {
			l.done[ti] = true
			l.finished = true
		}
	}
	l.wakeAt = cycle + 1
}

// stepSingle advances a single-context lane by one cycle: with one
// hardware context there is no merge stage (the selector is the
// trivial one-port IMT, so a runnable thread always issues alone), and
// the step reduces to fetch, retire and stall fast-forward.
//
//vliw:hotpath
func (l *lane) stepSingle(b *batchCore, cycle int64) {
	if l.slicing && cycle == l.nextSlice {
		l.schedule()
		l.nextSlice = cycle + l.cfg.TimesliceCycles
	}
	ti := l.running[0]
	ready := ti >= 0 && !l.done[ti] && l.readyAt[ti] <= cycle
	if ready && !l.fetched[ti] {
		pi := &b.plis[ti][l.cur[ti]]
		l.fetched[ti] = true // the line arrives during any stall
		if l.ic != nil && !l.ic.Access(pi.Addr, false) {
			pen := int64(l.ic.MissPenalty())
			l.readyAt[ti] = cycle + pen
			l.stats[ti].StallFetch += pen
			ready = false
		}
	}
	if !ready {
		next := l.nextEvent(cycle)
		span := next - cycle
		l.res.MergeHist[0] += span
		l.res.EmptyCycles += span
		l.ffSpans++
		l.ffCycles += span
		l.wakeAt = next
		return
	}
	pi := &b.plis[ti][l.cur[ti]]
	l.res.MergeHist[1]++
	if pi.Occ.Ops == 0 {
		l.res.EmptyCycles++
	}
	l.stats[ti].ScheduledCycles++
	if l.retireOne(b, ti, cycle) {
		l.done[ti] = true
		l.finished = true
	}
	l.wakeAt = cycle + 1
}

// selectCands runs the merge stage for the gathered candidates on the
// packed dictionary. For a stateless evaluator a lone candidate is
// always selected whole (every tree node passes a single non-empty
// input through unmerged, and IMT issues it), so the evaluator call is
// skipped; BMT sees every call.
//
// The return value is packed: the selected-port mask in the low bits
// plus the selEmptyOps flag — the only two facts the cycle loop
// consumes from a selection.
//
//vliw:hotpath
func (l *lane) selectCands(valid uint32) uint32 {
	var mask uint32
	var ops uint8
	if l.lone && valid&(valid-1) == 0 {
		mask, ops = valid, l.pd[l.candID[bits.TrailingZeros32(valid)]].Ops
	} else {
		mask, ops = l.sel.SelectPacked(l.pd, &l.plim, l.candID, valid)
	}
	if ops == 0 {
		mask |= selEmptyOps
	}
	return mask
}

// retireOne retires task ti's current instruction at cycle, updating
// run totals and the thread's stall clock, and reports whether the
// thread hit its instruction budget (ending the run). It is driven by
// the task's plan: the memory-op recipe and operation count come
// precomputed from the PlannedInstr, and the successor is a flat index
// instead of walker block/idx bookkeeping.
//
//vliw:hotpath
func (l *lane) retireOne(b *batchCore, ti int, cycle int64) bool {
	f := l.cur[ti]
	next, mem, taken := l.walkers[ti].RetirePlan(b.plans[ti], f)
	pi := &b.plans[ti].Instrs[f]
	l.cur[ti] = next
	l.fetched[ti] = false
	l.stats[ti].Instrs++
	l.stats[ti].Ops += int64(pi.Ops)
	l.res.Instrs++
	l.res.Ops += int64(pi.Ops)

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
	return l.walkers[ti].Retired >= l.cfg.InstrLimit
}

// finalize closes the lane's run after the driver retired it.
func (l *lane) finalize() *Result {
	res := l.res
	res.Cycles = l.endCycle
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
	recordRunMetrics(res, l.ffSpans, l.ffCycles)
	return res
}
