package sim_test

// Small-scope conformance: sim.Run against refsim.Run over the whole
// simtest domain, every pair of one-block loops of one or two
// instructions on a 2-cluster machine, on the axes where the cycle
// loop's shortcuts and boundary rules live: the merge stage and the
// memory models, timeslice deschedules, and MaxCycles cut-offs. Cases
// run in enumeration order and the first divergence fails the test, so
// the case reported is the smallest the domain holds. Every axis runs
// under each memory model, one of which fetches through the pinned path,
// and checks that its runs reached both fetch paths. -short runs every
// seventh case of each axis; CI runs the domain in full.

import (
	"fmt"
	"reflect"
	"testing"

	"vliwmt/internal/program"
	"vliwmt/internal/refsim"
	"vliwmt/internal/sim"
	"vliwmt/internal/sim/simtest"
	"vliwmt/internal/telemetry"
)

// smallScope runs each case of an axis that the -short sample keeps and
// fails at the first whose sim.Run and refsim.Run Results differ.
type smallScope struct {
	t    *testing.T
	n    int
	runs int
	// icache sums the I-cache accesses of the cases run; resident0 is
	// the resident-fetch counter before the first.
	icache    int64
	resident0 int64
}

func newSmallScope(t *testing.T) *smallScope {
	_, _, resident := counters()
	return &smallScope{t: t, resident0: resident}
}

// check compares the two loops on one case, named by desc.
func (s *smallScope) check(desc string, cfg sim.Config, tasks []sim.Task) {
	s.t.Helper()
	s.n++
	if testing.Short() && s.n%7 != 1 {
		return
	}
	s.runs++
	got, err := sim.Run(cfg, tasks)
	if err != nil {
		s.t.Fatalf("%s: sim: %v", desc, err)
	}
	want, err := refsim.Run(cfg, tasks)
	if err != nil {
		s.t.Fatalf("%s: refsim: %v", desc, err)
	}
	if !reflect.DeepEqual(got, want) {
		s.t.Fatalf("first divergence, case %d: %s\n sim:    %+v\n refsim: %+v", s.n, desc, got, want)
	}
	s.icache += got.ICache.Accesses
}

// done fails the axis unless its runs reached both fetch paths: some,
// but not all, of their I-cache accesses were resident fetches.
func (s *smallScope) done() {
	s.t.Helper()
	_, _, resident := counters()
	if d := resident - s.resident0; d == 0 || d == s.icache {
		s.t.Errorf("%d of the axis's %d I-cache accesses were resident fetches; both fetch paths must be reached", d, s.icache)
	}
	s.t.Logf("%d of %d cases run", s.runs, s.n)
}

// counters reads the burst, fast-forward and resident-fetch
// instruments, so an axis can show that its runs reach each shortcut.
func counters() (burst, ff, resident int64) {
	snap := telemetry.Default().Snapshot()
	return snap.Counter("sim_issue_burst_cycles_total"), snap.Counter("sim_fastforward_cycles_total"),
		snap.Counter("sim_icache_resident_fetches_total")
}

// memories are the memory models every axis runs under: Memories, whose
// fetches all go through Access, and PinnedFetch, whose fetches all take
// the pinned path.
func memories() []simtest.Memory { return append(simtest.Memories(), simtest.PinnedFetch()) }

// TestSmallScopePairs: every ordered pair of domain programs on two
// contexts, under each two-context scheme and each memory model.
func TestSmallScopePairs(t *testing.T) {
	s := newSmallScope(t)
	burst0, ff0, _ := counters()
	progs := simtest.Programs()
	for _, a := range progs {
		for _, b := range progs {
			for _, mem := range memories() {
				for _, scheme := range simtest.Schemes2() {
					s.check(fmt.Sprintf("%s + %s, %s, %s memory", a.Name, b.Name, scheme, mem.Name),
						simtest.Config(scheme, mem), simtest.Tasks(a, b))
				}
			}
		}
	}
	burst, ff, _ := counters()
	if burst == burst0 || ff == ff0 {
		t.Errorf("the domain's runs issued %d burst cycles and fast-forwarded %d; both shortcuts must be reached", burst-burst0, ff-ff0)
	}
	s.done()
}

// TestSmallScopeTimeslices: three tasks on two contexts, every ordered
// pair of domain programs plus a third that varies with the pair, at
// timeslices of 1, 2, 3 and 7 cycles, so deschedules land inside
// stalls, bursts and fast-forward spans.
func TestSmallScopeTimeslices(t *testing.T) {
	s := newSmallScope(t)
	progs := simtest.Programs()
	for i, a := range progs {
		for j, b := range progs {
			c := progs[(i+2*j+1)%len(progs)]
			for _, slice := range []int64{1, 2, 3, 7} {
				for _, mem := range memories() {
					for _, scheme := range []string{"S(T0,T1)", "BMT"} {
						cfg := simtest.Config(scheme, mem)
						cfg.TimesliceCycles = slice
						s.check(fmt.Sprintf("%s + %s + %s, timeslice %d, %s, %s memory", a.Name, b.Name, c.Name, slice, scheme, mem.Name),
							cfg, simtest.Tasks(a, b, c))
					}
				}
			}
		}
	}
	s.done()
}

// TestSmallScopeMaxCycles: MaxCycles at every cycle of a run, so a cut
// lands inside a burst, a fast-forward span and a stall. Each domain
// program runs with a partner that varies with it, on two contexts and
// as three tasks at a 3-cycle timeslice.
func TestSmallScopeMaxCycles(t *testing.T) {
	s := newSmallScope(t)
	progs := simtest.Programs()
	for i, a := range progs {
		b := progs[(7*i+3)%len(progs)]
		c := progs[(5*i+1)%len(progs)]
		for _, set := range [][]*program.Program{{a, b}, {a, b, c}} {
			for _, mem := range memories() {
				for _, scheme := range []string{"S(T0,T1)", "C(T0,T1)", "BMT"} {
					cfg := simtest.Config(scheme, mem)
					if len(set) > 2 {
						cfg.TimesliceCycles = 3
					}
					full, err := refsim.Run(cfg, simtest.Tasks(set...))
					if err != nil {
						t.Fatal(err)
					}
					for mc := int64(1); mc <= full.Cycles; mc++ {
						cfg.MaxCycles = mc
						s.check(fmt.Sprintf("%v, timeslice %d, %s, %s memory, MaxCycles %d", names(set), cfg.TimesliceCycles, scheme, mem.Name, mc),
							cfg, simtest.Tasks(set...))
					}
				}
			}
		}
	}
	s.done()
}

func names(progs []*program.Program) []string {
	out := make([]string, len(progs))
	for i, p := range progs {
		out[i] = p.Name
	}
	return out
}
