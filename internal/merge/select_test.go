package merge

import (
	"math/rand"
	"testing"

	"vliwmt/internal/isa"
)

// occOn builds an occupancy with one ALU op on each listed cluster.
func occOn(clusters ...int) *isa.Occupancy {
	var ops []isa.Op
	for _, c := range clusters {
		ops = append(ops, isa.Op{Class: isa.OpALU, Cluster: uint8(c)})
	}
	o := isa.OccupancyOf(ops)
	return &o
}

// denseOcc builds an occupancy with n ALU ops on every cluster of m.
func denseOcc(m *isa.Machine, n int) *isa.Occupancy {
	var ops []isa.Op
	for c := 0; c < m.Clusters; c++ {
		for i := 0; i < n; i++ {
			ops = append(ops, isa.Op{Class: isa.OpALU, Cluster: uint8(c)})
		}
	}
	o := isa.OccupancyOf(ops)
	return &o
}

func mustParse(t *testing.T, name string, ports int) *Tree {
	t.Helper()
	tree, err := Parse(name, ports)
	if err != nil {
		t.Fatalf("Parse(%q, %d): %v", name, ports, err)
	}
	return tree
}

// pack converts the pointer-slice candidate convention the tests build
// into the value-slice + valid-bitmask form of the Selector interface.
func pack(cands []*isa.Occupancy) ([]isa.Occupancy, uint32) {
	vals := make([]isa.Occupancy, len(cands))
	var valid uint32
	for p, c := range cands {
		if c != nil {
			vals[p] = *c
			valid |= 1 << uint(p)
		}
	}
	return vals, valid
}

// treeSelect runs both the recursive reference walk and the packed
// evaluator on cands and fails the test when they disagree on the mask
// or the merged operation count, so every tree selection in this suite
// doubles as a packed-vs-reference differential check.
func treeSelect(t testing.TB, tree *Tree, m *isa.Machine, cands []*isa.Occupancy) Selection {
	t.Helper()
	vals, valid := pack(cands)
	ref := tree.Select(m, vals, valid)
	mask, ops := selectPacked(t, Compile(tree), m, vals, valid)
	if mask != ref.Mask || ops != ref.Occ.Ops {
		t.Fatalf("%s: packed selection (mask %b, ops %d) != reference (mask %b, ops %d)", tree.Name(), mask, ops, ref.Mask, ref.Occ.Ops)
	}
	return ref
}

func TestCascadeCSMTSelectsDisjoint(t *testing.T) {
	m := isa.Default()
	tree := mustParse(t, "3CCC", 4)
	cands := []*isa.Occupancy{occOn(0), occOn(1), occOn(2), occOn(3)}
	s := treeSelect(t, tree, &m, cands)
	if s.Mask != 0b1111 {
		t.Errorf("disjoint threads: mask = %04b, want 1111", s.Mask)
	}
	if s.Occ.Ops != 4 {
		t.Errorf("merged ops = %d, want 4", s.Occ.Ops)
	}
}

func TestCascadeCSMTDropsConflicting(t *testing.T) {
	m := isa.Default()
	tree := mustParse(t, "3CCC", 4)
	// T1 conflicts with T0 on cluster 0; T2 and T3 are disjoint.
	cands := []*isa.Occupancy{occOn(0), occOn(0), occOn(1), occOn(2)}
	s := treeSelect(t, tree, &m, cands)
	if s.Mask != 0b1101 {
		t.Errorf("mask = %04b, want 1101", s.Mask)
	}
}

func TestCSMTCannotMergeSharedCluster(t *testing.T) {
	m := isa.Default()
	tree := mustParse(t, "1C", 2)
	cands := []*isa.Occupancy{occOn(0, 1), occOn(1, 2)}
	s := treeSelect(t, tree, &m, cands)
	if s.Mask != 0b01 {
		t.Errorf("mask = %02b, want 01 (priority thread only)", s.Mask)
	}
}

func TestSMTMergesSharedClusterWhenFits(t *testing.T) {
	m := isa.Default()
	tree := mustParse(t, "1S", 2)
	cands := []*isa.Occupancy{occOn(0, 1), occOn(1, 2)}
	s := treeSelect(t, tree, &m, cands)
	if s.Mask != 0b11 {
		t.Errorf("mask = %02b, want 11", s.Mask)
	}
	if s.Occ.Clusters[1].Total != 2 {
		t.Errorf("cluster 1 should carry both ops, got %d", s.Occ.Clusters[1].Total)
	}
}

// TestBalancedAtomicity reproduces the restriction the paper describes for
// tree schemes: merging T2 and T3 first creates a packet that may not merge
// with (T0,T1) even though T2 alone would have merged.
func TestBalancedAtomicity(t *testing.T) {
	m := isa.Default()
	balanced := mustParse(t, "2CC", 4)
	serial := mustParse(t, "3CCC", 4)
	cands := []*isa.Occupancy{
		occOn(0), // T0
		nil,      // T1 stalled
		occOn(1), // T2: disjoint from T0
		occOn(0), // T3: conflicts with T0, merges with T2
	}
	// Balanced: group2 = {T2,T3} (clusters 1 and 0) conflicts with T0.
	s := treeSelect(t, balanced, &m, cands)
	if s.Mask != 0b0001 {
		t.Errorf("balanced mask = %04b, want 0001", s.Mask)
	}
	// Serial cascade: T0+T2 merge, then T3 is rejected individually.
	s = treeSelect(t, serial, &m, cands)
	if s.Mask != 0b0101 {
		t.Errorf("serial mask = %04b, want 0101", s.Mask)
	}
}

// Test2SCRestriction demonstrates why 2SC performs worst in the paper: two
// SMT-merged dense packets almost never pass the cluster-level root check.
func Test2SCRestriction(t *testing.T) {
	m := isa.Default()
	tree := mustParse(t, "2SC", 4)
	// Four sparse threads all over the clusters: pairwise SMT merging
	// succeeds inside each group, but both groups then span all clusters.
	cands := []*isa.Occupancy{occOn(0, 1), occOn(2, 3), occOn(0, 2), occOn(1, 3)}
	s := treeSelect(t, tree, &m, cands)
	if s.Mask != 0b0011 {
		t.Errorf("2SC mask = %04b, want 0011 (first SMT group only)", s.Mask)
	}
	// 3SSS merges all four.
	if s := treeSelect(t, mustParse(t, "3SSS", 4), &m, cands); s.Mask != 0b1111 {
		t.Errorf("3SSS mask = %04b, want 1111", s.Mask)
	}
}

func TestEmptyAndSingleCandidate(t *testing.T) {
	m := isa.Default()
	for _, name := range PaperSchemes4() {
		tree := mustParse(t, name, mustPorts(t, name))
		cands := make([]*isa.Occupancy, tree.Ports())
		if s := treeSelect(t, tree, &m, cands); !s.Empty() {
			t.Errorf("%s: selection from no candidates = %v", name, s)
		}
		for p := 0; p < tree.Ports(); p++ {
			cands := make([]*isa.Occupancy, tree.Ports())
			cands[p] = occOn(2)
			s := treeSelect(t, tree, &m, cands)
			if s.Mask != 1<<uint(p) {
				t.Errorf("%s: single candidate at port %d gave mask %04b", name, p, s.Mask)
			}
		}
	}
}

// TestHighestPriorityAlwaysIssues: in every paper scheme, the first
// runnable port in leaf order is always part of the selection.
func TestHighestPriorityAlwaysIssues(t *testing.T) {
	m := isa.Default()
	r := rand.New(rand.NewSource(7))
	for _, name := range PaperSchemes4() {
		tree := mustParse(t, name, mustPorts(t, name))
		for trial := 0; trial < 200; trial++ {
			cands := randomCands(r, &m, tree.Ports())
			first := -1
			for p, c := range cands {
				if c != nil {
					first = p
					break
				}
			}
			s := treeSelect(t, tree, &m, cands)
			if first == -1 {
				if !s.Empty() {
					t.Fatalf("%s: selected from empty candidates", name)
				}
				continue
			}
			if !s.Has(first) {
				t.Fatalf("%s: highest-priority runnable port %d not selected (mask %04b)", name, first, s.Mask)
			}
		}
	}
}

func randomCands(r *rand.Rand, m *isa.Machine, ports int) []*isa.Occupancy {
	cands := make([]*isa.Occupancy, ports)
	for p := range cands {
		if r.Intn(5) == 0 {
			continue // stalled
		}
		var ops []isa.Op
		n := 1 + r.Intn(6)
		for i := 0; i < n; i++ {
			cl := uint8(r.Intn(m.Clusters))
			class := isa.OpALU
			switch r.Intn(6) {
			case 0:
				class = isa.OpMul
			case 1:
				class = isa.OpMem
			}
			ops = append(ops, isa.Op{Class: class, Cluster: cl})
		}
		occ := isa.OccupancyOf(ops)
		if !occ.FitsAlone(m) {
			occ = *occOn(r.Intn(m.Clusters))
		}
		cands[p] = &occ
	}
	return cands
}

// TestFunctionalEquivalences verifies the identities the paper reports:
// the parallel implementations select exactly like their serial cascades
// (C4 = 3CCC, 2SC3 = 3SCC, 2C3S = 3CCS) for every candidate combination.
func TestFunctionalEquivalences(t *testing.T) {
	m := isa.Default()
	pairs := [][2]string{{"C4", "3CCC"}, {"2SC3", "3SCC"}, {"2C3S", "3CCS"}}
	r := rand.New(rand.NewSource(42))
	for _, pair := range pairs {
		a := mustParse(t, pair[0], 4)
		b := mustParse(t, pair[1], 4)
		for trial := 0; trial < 2000; trial++ {
			cands := randomCands(r, &m, 4)
			sa := treeSelect(t, a, &m, cands)
			sb := treeSelect(t, b, &m, cands)
			if sa.Mask != sb.Mask {
				t.Fatalf("%s vs %s: mask %04b != %04b for %v", pair[0], pair[1], sa.Mask, sb.Mask, cands)
			}
			if sa.Occ != sb.Occ {
				t.Fatalf("%s vs %s: merged occupancy differs", pair[0], pair[1])
			}
		}
	}
}

// TestSelectionInvariants: selected ports always had candidates, and the
// merged occupancy is exactly the union of the selected candidates and
// still fits the machine.
func TestSelectionInvariants(t *testing.T) {
	m := isa.Default()
	r := rand.New(rand.NewSource(99))
	for _, name := range PaperSchemes4() {
		tree := mustParse(t, name, mustPorts(t, name))
		for trial := 0; trial < 500; trial++ {
			cands := randomCands(r, &m, tree.Ports())
			s := treeSelect(t, tree, &m, cands)
			var union isa.Occupancy
			for p := 0; p < tree.Ports(); p++ {
				if !s.Has(p) {
					continue
				}
				if cands[p] == nil {
					t.Fatalf("%s: selected stalled port %d", name, p)
				}
				union = union.Union(*cands[p])
			}
			if union != s.Occ {
				t.Fatalf("%s: merged occupancy is not the union of selected candidates", name)
			}
			if !s.Empty() && !s.Occ.FitsAlone(&m) {
				t.Fatalf("%s: merged packet oversubscribes the machine: %v", name, s.Occ)
			}
		}
	}
}

// TestSMTSupersetOfCSMTPairwise: for the two-thread schemes the SMT
// selection is always a superset of the CSMT selection.
func TestSMTSupersetOfCSMTPairwise(t *testing.T) {
	m := isa.Default()
	r := rand.New(rand.NewSource(5))
	smt := mustParse(t, "1S", 2)
	csmt := mustParse(t, "1C", 2)
	for trial := 0; trial < 2000; trial++ {
		cands := randomCands(r, &m, 2)
		a := treeSelect(t, smt, &m, cands)
		b := treeSelect(t, csmt, &m, cands)
		if b.Mask&^a.Mask != 0 {
			t.Fatalf("CSMT selected ports SMT did not: %04b vs %04b", b.Mask, a.Mask)
		}
	}
}

func TestIMTSelectsExactlyOne(t *testing.T) {
	m := isa.Default()
	imt := &IMT{NumPorts: 4}
	vals, valid := pack([]*isa.Occupancy{nil, occOn(1), occOn(2), nil})
	s := imt.Select(&m, vals, valid)
	if s.Mask != 0b0010 {
		t.Errorf("IMT mask = %04b, want 0010", s.Mask)
	}
	if s := imt.Select(&m, make([]isa.Occupancy, 4), 0); !s.Empty() {
		t.Error("IMT selected from no candidates")
	}
	if imt.Name() != "IMT" || imt.Ports() != 4 {
		t.Error("IMT metadata wrong")
	}
}

func TestBMTSticksUntilBlocked(t *testing.T) {
	m := isa.Default()
	bmt := &BMT{NumPorts: 3}
	cands := []*isa.Occupancy{occOn(0), occOn(1), occOn(2)}
	sel := func() Selection {
		vals, valid := pack(cands)
		return bmt.Select(&m, vals, valid)
	}
	if s := sel(); s.Mask != 0b001 {
		t.Fatalf("BMT first pick = %03b, want 001", s.Mask)
	}
	// Still runnable: stick with thread 0.
	if s := sel(); s.Mask != 0b001 {
		t.Errorf("BMT did not stick with running thread")
	}
	// Thread 0 blocks: switch to next runnable (thread 1).
	cands[0] = nil
	if s := sel(); s.Mask != 0b010 {
		t.Errorf("BMT did not switch on block")
	}
	// Thread 0 wakes up, but BMT stays on thread 1 until it blocks.
	cands[0] = occOn(0)
	if s := sel(); s.Mask != 0b010 {
		t.Errorf("BMT switched away from a runnable thread")
	}
	cands[1] = nil
	if s := sel(); s.Mask != 0b100 {
		t.Errorf("BMT wrap-around pick = wrong; want thread 2")
	}
}

func TestNewSelector(t *testing.T) {
	for _, name := range []string{"IMT", "BMT", "3SSS", "C4"} {
		sel, err := NewSelector(name, 4)
		if err != nil {
			t.Errorf("NewSelector(%q): %v", name, err)
			continue
		}
		if sel.Name() != name {
			t.Errorf("selector name = %q, want %q", sel.Name(), name)
		}
	}
	if _, err := NewSelector("bogus", 4); err == nil {
		t.Error("NewSelector accepted bogus name")
	}
}
