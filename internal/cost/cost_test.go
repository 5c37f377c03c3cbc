package cost

import (
	"testing"

	"vliwmt/internal/isa"
)

func TestForSchemeKnownNames(t *testing.T) {
	m := isa.Default()
	for _, s := range []string{"1S", "3SSS", "C4", "2SC3", "C3(S(T0,T1),S(T2,T3),T4)"} {
		sc, err := ForScheme(m, s)
		if err != nil {
			t.Fatalf("ForScheme(%s): %v", s, err)
		}
		if sc.Transistors <= 0 || sc.GateDelays <= 0 {
			t.Errorf("%s: non-positive cost %+v", s, sc)
		}
	}
	if _, err := ForScheme(m, "bogus"); err == nil {
		t.Error("ForScheme accepted bogus scheme")
	}
}

func TestPaperSchemesComplete(t *testing.T) {
	costs, err := PaperSchemes(isa.Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 16 {
		t.Fatalf("got %d schemes, want 16", len(costs))
	}
	byName := map[string]SchemeCost{}
	for _, c := range costs {
		byName[c.Scheme] = c
	}
	// Functional twins may differ in cost: the parallel C4 must beat the
	// serial 3CCC on delay and lose on transistors.
	if byName["C4"].GateDelays >= byName["3CCC"].GateDelays {
		t.Error("C4 delay not below 3CCC")
	}
	if byName["C4"].Transistors <= byName["3CCC"].Transistors {
		t.Error("C4 transistors not above 3CCC")
	}
}

func TestControlScalingShapes(t *testing.T) {
	pts, err := ControlScaling(isa.Default(), 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("got %d points, want 7", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		// All three curves grow monotonically in transistors and delay.
		if pts[i].CSMTSerial.Transistors <= pts[i-1].CSMTSerial.Transistors {
			t.Error("CSMT serial transistors not increasing")
		}
		if pts[i].CSMTParallel.Transistors <= pts[i-1].CSMTParallel.Transistors {
			t.Error("CSMT parallel transistors not increasing")
		}
		if pts[i].SMT.Transistors <= pts[i-1].SMT.Transistors {
			t.Error("SMT transistors not increasing")
		}
	}
	// CSMT serial is linear: increments roughly constant.
	first := pts[1].CSMTSerial.Transistors - pts[0].CSMTSerial.Transistors
	last := pts[6].CSMTSerial.Transistors - pts[5].CSMTSerial.Transistors
	if last > 2*first {
		t.Errorf("CSMT serial growth not linear: first %d, last %d", first, last)
	}
	// CSMT parallel is exponential: the last increment dwarfs the first,
	// and by 8 threads it overtakes SMT (the paper's Figure 5a crossover).
	firstPL := pts[1].CSMTParallel.Transistors - pts[0].CSMTParallel.Transistors
	lastPL := pts[6].CSMTParallel.Transistors - pts[5].CSMTParallel.Transistors
	if lastPL < 10*firstPL {
		t.Errorf("CSMT parallel growth not exponential: first %d, last %d", firstPL, lastPL)
	}
	if pts[6].CSMTParallel.Transistors <= pts[6].SMT.Transistors {
		t.Error("CSMT parallel did not overtake SMT at 8 threads")
	}
	// At every point SMT has the largest delay; CSMT parallel the lowest
	// beyond 2 threads.
	for _, p := range pts {
		if p.SMT.GateDelays <= p.CSMTSerial.GateDelays {
			t.Errorf("%d threads: SMT delay %d not above CSMT serial %d",
				p.Threads, p.SMT.GateDelays, p.CSMTSerial.GateDelays)
		}
		if p.Threads > 2 && p.CSMTParallel.GateDelays >= p.CSMTSerial.GateDelays {
			t.Errorf("%d threads: CSMT parallel delay %d not below serial %d",
				p.Threads, p.CSMTParallel.GateDelays, p.CSMTSerial.GateDelays)
		}
	}
}

func TestControlScalingValidation(t *testing.T) {
	if _, err := ControlScaling(isa.Default(), 1, 4); err == nil {
		t.Error("accepted minThreads=1")
	}
	if _, err := ControlScaling(isa.Default(), 4, 2); err == nil {
		t.Error("accepted max < min")
	}
}
