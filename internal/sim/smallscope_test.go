package sim_test

// Small-scope conformance: sim.Run against refsim.Run over the whole
// simtest domain, every pair of one-block loops of one or two
// instructions on a 2-cluster machine, on the axes where the cycle
// loop's shortcuts and boundary rules live: the merge stage and the
// memory models, timeslice deschedules, and MaxCycles cut-offs. Cases
// run in enumeration order and the first divergence fails the test, so
// the case reported is the smallest the domain holds. -short runs every
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
	// icache sums the I-cache accesses of the cases run.
	icache int64
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

// counters reads the burst, fast-forward and resident-fetch
// instruments, so an axis can show that its runs reach each shortcut.
func counters() (burst, ff, resident int64) {
	snap := telemetry.Default().Snapshot()
	return snap.Counter("sim_issue_burst_cycles_total"), snap.Counter("sim_fastforward_cycles_total"),
		snap.Counter("sim_icache_resident_fetches_total")
}

// TestSmallScopePairs: every ordered pair of domain programs on two
// contexts, under each two-context scheme and each memory model, plus
// the 2-way I-cache of TwoWayFetch: its fetches all take the pinned
// path, and those under the direct-mapped I-cache all go through Access.
func TestSmallScopePairs(t *testing.T) {
	s := &smallScope{t: t}
	burst0, ff0, resident0 := counters()
	progs := simtest.Programs()
	for _, a := range progs {
		for _, b := range progs {
			for _, mem := range append(simtest.Memories(), simtest.TwoWayFetch()) {
				for _, scheme := range simtest.Schemes2() {
					s.check(fmt.Sprintf("%s + %s, %s, %s memory", a.Name, b.Name, scheme, mem.Name),
						simtest.Config(scheme, mem), simtest.Tasks(a, b))
				}
			}
		}
	}
	burst, ff, resident := counters()
	if burst == burst0 || ff == ff0 {
		t.Errorf("the domain's runs issued %d burst cycles and fast-forwarded %d; both shortcuts must be reached", burst-burst0, ff-ff0)
	}
	if d := resident - resident0; d == 0 || d == s.icache {
		t.Errorf("%d of the domain's %d I-cache accesses were resident fetches; both fetch paths must be reached", d, s.icache)
	}
	t.Logf("%d of %d cases run", s.runs, s.n)
}

// TestSmallScopeTimeslices: three tasks on two contexts, every ordered
// pair of domain programs plus a third that varies with the pair, at
// timeslices of 1, 2, 3 and 7 cycles, so deschedules land inside
// stalls, bursts and fast-forward spans.
func TestSmallScopeTimeslices(t *testing.T) {
	s := &smallScope{t: t}
	progs := simtest.Programs()
	for i, a := range progs {
		for j, b := range progs {
			c := progs[(i+2*j+1)%len(progs)]
			for _, slice := range []int64{1, 2, 3, 7} {
				for _, mem := range simtest.Memories() {
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
	t.Logf("%d of %d cases run", s.runs, s.n)
}

// TestSmallScopeMaxCycles: MaxCycles at every cycle of a run, so a cut
// lands inside a burst, a fast-forward span and a stall. Each domain
// program runs with a partner that varies with it, on two contexts and
// as three tasks at a 3-cycle timeslice.
func TestSmallScopeMaxCycles(t *testing.T) {
	s := &smallScope{t: t}
	progs := simtest.Programs()
	for i, a := range progs {
		b := progs[(7*i+3)%len(progs)]
		c := progs[(5*i+1)%len(progs)]
		for _, set := range [][]*program.Program{{a, b}, {a, b, c}} {
			for _, mem := range simtest.Memories() {
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
	t.Logf("%d of %d cases run", s.runs, s.n)
}

func names(progs []*program.Program) []string {
	out := make([]string, len(progs))
	for i, p := range progs {
		out[i] = p.Name
	}
	return out
}
