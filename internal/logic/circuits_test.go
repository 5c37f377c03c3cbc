package logic

import (
	"math/rand"
	"testing"

	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/merge/mergetest"
)

// schemeTree resolves a scheme name to its merge tree, failing the
// test on an unknown name.
func schemeTree(t *testing.T, scheme string) *merge.Tree {
	t.Helper()
	s, err := merge.Resolve(scheme)
	if err != nil {
		t.Fatalf("Resolve(%s): %v", scheme, err)
	}
	return s.Tree()
}

func buildCircuit(t *testing.T, scheme string) (*Circuit, *merge.Tree) {
	t.Helper()
	m := isa.Default()
	tree := schemeTree(t, scheme)
	c, err := BuildScheme(&m, tree)
	if err != nil {
		t.Fatalf("BuildScheme(%s): %v", scheme, err)
	}
	return c, tree
}

func randomCandSet(r *rand.Rand, m *isa.Machine, ports int) ([]isa.Occupancy, uint32) {
	cands := make([]isa.Occupancy, ports)
	var valid uint32
	for p := range cands {
		if r.Intn(5) == 0 {
			continue
		}
		cands[p] = mergetest.RandomOcc(r, m)
		valid |= 1 << uint(p)
	}
	return cands, valid
}

// TestCircuitMatchesBaselineControls checks the figure-5 control circuits
// (CSMT serial, CSMT parallel, SMT cascade) for 2..6 threads.
func TestCircuitMatchesBaselineControls(t *testing.T) {
	m := isa.Default()
	r := rand.New(rand.NewSource(23))
	for n := 2; n <= 6; n++ {
		trees := controlTrees(t, n)
		for _, tree := range trees {
			c, err := BuildScheme(&m, tree)
			if err != nil {
				t.Fatalf("%s/%d: %v", tree.Name(), n, err)
			}
			for i := 0; i < 150; i++ {
				cands, valid := randomCandSet(r, &m, n)
				want := tree.Select(&m, cands, valid).Mask
				got, err := c.Evaluate(cands, valid)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s/%d threads: circuit %0*b != behavioural %0*b", tree.Name(), n, n, got, n, want)
				}
			}
		}
	}
}

func controlTrees(t *testing.T, n int) []*merge.Tree {
	t.Helper()
	kindsC := make([]merge.Kind, n-1)
	kindsS := make([]merge.Kind, n-1)
	for i := range kindsC {
		kindsC[i] = merge.CSMT
		kindsS[i] = merge.SMT
	}
	csmtSL, err := merge.Cascade("csmt-sl", kindsC...)
	if err != nil {
		t.Fatal(err)
	}
	smt, err := merge.Cascade("smt", kindsS...)
	if err != nil {
		t.Fatal(err)
	}
	csmtPL, err := merge.ParallelCSMT("csmt-pl", n)
	if err != nil {
		t.Fatal(err)
	}
	return []*merge.Tree{csmtSL, csmtPL, smt}
}

// TestSerialParallelCSMTSameCost checks the functional equivalence pair
// and the cost difference: the parallel form must cost more transistors
// but fewer gate delays than the serial cascade at 4 threads.
func TestSerialParallelCSMTCostShape(t *testing.T) {
	serial, _ := buildCircuit(t, "3CCC")
	parallel, _ := buildCircuit(t, "C4")
	st, sd := serial.Cost()
	pt, pd := parallel.Cost()
	if pt <= st {
		t.Errorf("parallel CSMT transistors %d not above serial %d", pt, st)
	}
	if pd >= sd {
		t.Errorf("parallel CSMT delay %d not below serial %d", pd, sd)
	}
}

// TestSMTCostDominatesCSMT: an SMT merge control block costs much more
// than a CSMT one (the premise of the whole paper).
func TestSMTCostDominatesCSMT(t *testing.T) {
	smt, _ := buildCircuit(t, "1S")
	m := isa.Default()
	tree, err := merge.Cascade("1C", merge.CSMT)
	if err != nil {
		t.Fatal(err)
	}
	csmt, err := BuildScheme(&m, tree)
	if err != nil {
		t.Fatal(err)
	}
	st, sd := smt.Cost()
	ct, cd := csmt.Cost()
	if st < 4*ct {
		t.Errorf("SMT transistors %d not >> CSMT %d", st, ct)
	}
	if sd <= cd {
		t.Errorf("SMT delay %d not above CSMT %d", sd, cd)
	}
}

// TestSchemeCostOrderings verifies the cost relations the paper highlights
// in Figure 9.
func TestSchemeCostOrderings(t *testing.T) {
	cost := map[string][2]int{}
	for _, s := range merge.PaperSchemes4() {
		c, _ := buildCircuit(t, s)
		tr, d := c.Cost()
		cost[s] = [2]int{tr, d}
	}
	tr := func(s string) int { return cost[s][0] }
	d := func(s string) int { return cost[s][1] }

	// CSMT-only schemes are the cheapest in transistors.
	for _, cheap := range []string{"C4", "3CCC", "2CC"} {
		for _, other := range []string{"1S", "2SC3", "3SCC", "3SSS", "2SS"} {
			if tr(cheap) >= tr(other) {
				t.Errorf("transistors(%s)=%d not below %s=%d", cheap, tr(cheap), other, tr(other))
			}
		}
	}
	// Single-SMT-block schemes cost about one SMT block. The recommended
	// SMT-first schemes (2SC3, 3SCC) stay within 25% of 1S; schemes whose
	// SMT block consumes a CSMT-merged packet carry the packet-summary
	// logic too and stay within 60%.
	for _, s := range []string{"2SC3", "3SCC"} {
		if tr(s) < tr("1S") || tr(s) > tr("1S")*125/100 {
			t.Errorf("transistors(%s)=%d not close above 1S=%d", s, tr(s), tr("1S"))
		}
	}
	for _, s := range []string{"3CSC", "3CCS", "2C3S", "2CS"} {
		if tr(s) < tr("1S") || tr(s) > tr("1S")*160/100 {
			t.Errorf("transistors(%s)=%d not within 60%% above 1S=%d", s, tr(s), tr("1S"))
		}
	}
	// Two- and three-block schemes scale accordingly.
	if tr("2SC") < 2*tr("1S") || tr("3SSC") < 2*tr("1S") {
		t.Errorf("two-SMT-block schemes too cheap: 2SC=%d 3SSC=%d 1S=%d", tr("2SC"), tr("3SSC"), tr("1S"))
	}
	if tr("3SSS") < 3*tr("1S") || tr("2SS") < 3*tr("1S") {
		t.Errorf("three-SMT-block schemes too cheap: 2SS=%d 3SSS=%d 1S=%d", tr("2SS"), tr("3SSS"), tr("1S"))
	}
	// Delay: 3SSS is strictly the slowest; 2SC3/3SCC stay much closer to
	// 1S than to 3SSS (the SMT routing computation overlaps the CSMT
	// levels, as the paper observes).
	for _, s := range merge.PaperSchemes4() {
		if s != "3SSS" && d(s) >= d("3SSS") {
			t.Errorf("delay(%s)=%d not below 3SSS=%d", s, d(s), d("3SSS"))
		}
	}
	for _, s := range []string{"2SC3", "3SCC"} {
		if d(s)-d("1S") > d("3SSS")-d(s) {
			t.Errorf("delay(%s)=%d closer to 3SSS=%d than to 1S=%d", s, d(s), d("3SSS"), d("1S"))
		}
	}
	// Balanced trees beat their cascades on delay at equal node types.
	if d("2CC") >= d("3CCC") {
		t.Errorf("delay(2CC)=%d not below 3CCC=%d", d("2CC"), d("3CCC"))
	}
	if d("2SS") >= d("3SSS") {
		t.Errorf("delay(2SS)=%d not below 3SSS=%d", d("2SS"), d("3SSS"))
	}
	// 3SSC has the lowest delay among the two-SMT-block cascades.
	if d("3SSC") >= d("3SCS") || d("3SSC") >= d("3CSS") {
		t.Errorf("delay(3SSC)=%d not lowest of (3SCS=%d, 3CSS=%d)", d("3SSC"), d("3SCS"), d("3CSS"))
	}
}

func TestEvaluateRejectsWrongArity(t *testing.T) {
	c, _ := buildCircuit(t, "1S")
	if _, err := c.Evaluate(make([]isa.Occupancy, 4), 0); err == nil {
		t.Error("Evaluate accepted 4 candidates on a 2-port circuit")
	}
	if c.Ports() != 2 {
		t.Errorf("Ports() = %d", c.Ports())
	}
}

func TestBuildSchemeRejectsBadMachine(t *testing.T) {
	m := isa.Default()
	m.Clusters = 0
	tree := schemeTree(t, "1S")
	if _, err := BuildScheme(&m, tree); err == nil {
		t.Error("BuildScheme accepted invalid machine")
	}
}
