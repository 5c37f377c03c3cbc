package isa

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func op(class OpClass, cluster int) Op { return Op{Class: class, Cluster: uint8(cluster)} }

// figure1Pairs reconstructs the three instruction pairs of the paper's
// Figure 1 on its 4-cluster, 2-issue-per-cluster example machine, matching
// the properties the paper states for each pair:
//
// Pair I:   conflicts at clusters 0, 1 and 3 at both operation and cluster
//
//	level — unmergeable by either scheme.
//
// Pair II:  cluster-level conflicts at clusters 0, 2 and 3 but no
//
//	operation-level conflict — SMT merges it, CSMT does not
//	(merged packet: add mov | ld mpy | add st | sub add).
//
// Pair III: thread 0 uses only clusters 1 and 2, thread 1 only 0 and 3 —
//
//	both schemes merge it
//	(merged packet: shl mov | ld sub | st - | add mpy).
func figure1Pairs() (m Machine, pairs [3][2]Instruction) {
	m = Default()
	m.IssueWidth = 2
	m.Muls = 1
	pairs[0][0] = NewInstruction([]Op{op(OpALU, 0), op(OpMem, 1), op(OpALU, 1), op(OpALU, 2), op(OpALU, 3), op(OpALU, 3)})
	pairs[0][1] = NewInstruction([]Op{op(OpMul, 0), op(OpALU, 0), op(OpALU, 1), op(OpMem, 3)})
	pairs[1][0] = NewInstruction([]Op{op(OpALU, 0), op(OpALU, 2), op(OpALU, 3)})
	pairs[1][1] = NewInstruction([]Op{op(OpALU, 0), op(OpMem, 1), op(OpMul, 1), op(OpMem, 2), op(OpALU, 3)})
	pairs[2][0] = NewInstruction([]Op{op(OpMem, 1), op(OpALU, 1), op(OpMem, 2)})
	pairs[2][1] = NewInstruction([]Op{op(OpALU, 0), op(OpALU, 0), op(OpALU, 3), op(OpMul, 3)})
	return m, pairs
}

// TestFigure1Merging reproduces the merging outcomes of the paper's
// Figure 1: Pair I merges under neither scheme, Pair II merges under SMT
// only, Pair III merges under both.
func TestFigure1Merging(t *testing.T) {
	m, pairs := figure1Pairs()
	type want struct{ smt, csmt bool }
	wants := [3]want{{false, false}, {true, false}, {true, true}}
	for i, pair := range pairs {
		a, b := pair[0].Occ, pair[1].Occ
		if got := a.CompatSMT(b, &m); got != wants[i].smt {
			t.Errorf("pair %s: CompatSMT = %v, want %v", []string{"I", "II", "III"}[i], got, wants[i].smt)
		}
		if got := a.CompatCSMT(b); got != wants[i].csmt {
			t.Errorf("pair %s: CompatCSMT = %v, want %v", []string{"I", "II", "III"}[i], got, wants[i].csmt)
		}
	}
}

func TestOccupancyOf(t *testing.T) {
	in := NewInstruction([]Op{op(OpALU, 0), op(OpMul, 0), op(OpMem, 2), op(OpBranch, 0)})
	occ := in.Occ
	if occ.Ops != 4 {
		t.Errorf("Ops = %d, want 4", occ.Ops)
	}
	c0 := occ.Clusters[0]
	if c0.Total != 3 || c0.Mul != 1 || c0.Branch != 1 || c0.Mem != 0 {
		t.Errorf("cluster 0 use = %+v", c0)
	}
	c2 := occ.Clusters[2]
	if c2.Total != 1 || c2.Mem != 1 {
		t.Errorf("cluster 2 use = %+v", c2)
	}
	if occ.ClusterMask() != 0b0101 {
		t.Errorf("ClusterMask = %04b, want 0101", occ.ClusterMask())
	}
}

func TestCompatCSMTDisjoint(t *testing.T) {
	a := NewInstruction([]Op{op(OpALU, 0), op(OpALU, 1)}).Occ
	b := NewInstruction([]Op{op(OpALU, 2), op(OpALU, 3)}).Occ
	c := NewInstruction([]Op{op(OpALU, 1)}).Occ
	if !a.CompatCSMT(b) {
		t.Error("disjoint clusters should be CSMT compatible")
	}
	if a.CompatCSMT(c) {
		t.Error("overlapping clusters should not be CSMT compatible")
	}
	if !a.CompatCSMT(Occupancy{}) {
		t.Error("anything is CSMT compatible with the empty packet")
	}
}

func TestCompatSMTResourceLimits(t *testing.T) {
	m := Default()
	// Issue width: 3+2 fits in 4? No: 3+2=5 > 4.
	a := NewInstruction([]Op{op(OpALU, 0), op(OpALU, 0), op(OpALU, 0)}).Occ
	b := NewInstruction([]Op{op(OpALU, 0), op(OpALU, 0)}).Occ
	if a.CompatSMT(b, &m) {
		t.Error("5 ops on a 4-issue cluster should not merge")
	}
	one := NewInstruction([]Op{op(OpALU, 0)}).Occ
	if !a.CompatSMT(one, &m) {
		t.Error("4 ops on a 4-issue cluster should merge")
	}
	// Multiplier limit: 2 per cluster.
	mul1 := NewInstruction([]Op{op(OpMul, 1)}).Occ
	mul2 := NewInstruction([]Op{op(OpMul, 1), op(OpMul, 1)}).Occ
	if !mul1.CompatSMT(mul1, &m) {
		t.Error("two multiplies fit the two multipliers")
	}
	if mul1.CompatSMT(mul2, &m) {
		t.Error("three multiplies exceed the two multipliers")
	}
	// Memory limit: 1 per cluster.
	mem := NewInstruction([]Op{op(OpMem, 2)}).Occ
	if mem.CompatSMT(mem, &m) {
		t.Error("two memory ops exceed the single load/store unit")
	}
	// Branch limit: 1, on cluster 0 only.
	br := NewInstruction([]Op{op(OpBranch, 0)}).Occ
	if br.CompatSMT(br, &m) {
		t.Error("two branches exceed the single branch unit")
	}
}

func TestUnionAddsCounts(t *testing.T) {
	a := NewInstruction([]Op{op(OpALU, 0), op(OpMul, 1)}).Occ
	b := NewInstruction([]Op{op(OpMem, 2), op(OpALU, 1)}).Occ
	u := a.Union(b)
	if u.Ops != 4 {
		t.Errorf("union ops = %d, want 4", u.Ops)
	}
	if u.Clusters[1].Total != 2 || u.Clusters[1].Mul != 1 {
		t.Errorf("cluster 1 union = %+v", u.Clusters[1])
	}
	if u.ClusterMask() != 0b0111 {
		t.Errorf("union mask = %04b", u.ClusterMask())
	}
}

func TestFitsAlone(t *testing.T) {
	m := Default()
	ok := NewInstruction([]Op{op(OpALU, 0), op(OpALU, 0), op(OpMul, 0), op(OpMem, 0)}).Occ
	if !ok.FitsAlone(&m) {
		t.Error("4 ops incl. 1 mul + 1 mem should fit a cluster")
	}
	tooMany := NewInstruction([]Op{op(OpALU, 1), op(OpALU, 1), op(OpALU, 1), op(OpALU, 1), op(OpALU, 1)}).Occ
	if tooMany.FitsAlone(&m) {
		t.Error("5 ops on one cluster must not fit a 4-issue cluster")
	}
	brWrong := NewInstruction([]Op{op(OpBranch, 2)}).Occ
	if brWrong.FitsAlone(&m) {
		t.Error("branch on a non-branch cluster must not fit")
	}
	outside := Occupancy{}
	outside.Clusters[6].Total = 1
	if outside.FitsAlone(&m) {
		t.Error("use of a cluster beyond the machine must not fit")
	}
	// A hand-built summary can carry slot-class counts with Total 0;
	// on a cluster the machine lacks, any nonzero count is a use.
	stray := Occupancy{}
	stray.Clusters[7].Mul = 64
	if stray.FitsAlone(&m) {
		t.Error("a nonzero count on a cluster beyond the machine must not fit")
	}
}

// randomOccupancy builds an occupancy that fits machine m on its own.
func randomOccupancy(r *rand.Rand, m *Machine) Occupancy {
	var ops []Op
	for c := 0; c < m.Clusters; c++ {
		n := r.Intn(m.IssueWidth + 1)
		muls, mems := 0, 0
		for i := 0; i < n; i++ {
			switch r.Intn(4) {
			case 0:
				if muls < m.Muls {
					ops = append(ops, op(OpMul, c))
					muls++
					continue
				}
				fallthrough
			case 1:
				if mems < m.MemUnits {
					ops = append(ops, op(OpMem, c))
					mems++
					continue
				}
				fallthrough
			default:
				ops = append(ops, op(OpALU, c))
			}
		}
	}
	return OccupancyOf(ops)
}

// Property: CSMT compatibility implies SMT compatibility (cluster-disjoint
// packets can always be merged at operation level too), and both relations
// are symmetric.
func TestCompatProperties(t *testing.T) {
	m := Default()
	r := rand.New(rand.NewSource(1))
	f := func(seedA, seedB int64) bool {
		a := randomOccupancy(rand.New(rand.NewSource(seedA)), &m)
		b := randomOccupancy(rand.New(rand.NewSource(seedB)), &m)
		if a.CompatCSMT(b) && !a.CompatSMT(b, &m) {
			return false
		}
		if a.CompatCSMT(b) != b.CompatCSMT(a) {
			return false
		}
		return a.CompatSMT(b, &m) == b.CompatSMT(a, &m)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: merging two SMT-compatible packets yields a packet that still
// fits the machine on its own.
func TestUnionFitsProperty(t *testing.T) {
	m := Default()
	f := func(seedA, seedB int64) bool {
		a := randomOccupancy(rand.New(rand.NewSource(seedA)), &m)
		b := randomOccupancy(rand.New(rand.NewSource(seedB)), &m)
		if !a.CompatSMT(b, &m) {
			return true
		}
		return a.Union(b).FitsAlone(&m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInstructionValidate(t *testing.T) {
	m := Default()
	good := NewInstruction([]Op{op(OpALU, 0), op(OpMem, 3)})
	if err := good.Validate(&m); err != nil {
		t.Errorf("valid instruction rejected: %v", err)
	}
	badCluster := NewInstruction([]Op{op(OpALU, 5)})
	if err := badCluster.Validate(&m); err == nil {
		t.Error("instruction on cluster 5 of 4-cluster machine accepted")
	}
}

func TestInstructionStringAndSize(t *testing.T) {
	empty := NewInstruction(nil)
	if empty.String() != "nop" {
		t.Errorf("empty instruction String = %q", empty.String())
	}
	if empty.EncodedSize() != 4 {
		t.Errorf("empty instruction size = %d, want 4", empty.EncodedSize())
	}
	in := NewInstruction([]Op{op(OpMem, 1), op(OpALU, 0)})
	if in.EncodedSize() != 12 {
		t.Errorf("2-op instruction size = %d, want 12", in.EncodedSize())
	}
	// NewInstruction sorts by cluster.
	if got := in.String(); got != "alu.c0 ; mem.c1" {
		t.Errorf("2-op instruction String = %q, want ops sorted by cluster", got)
	}
	if got := fmt.Sprint([]OpClass{OpALU, OpMul, OpMem, OpBranch, OpCopy, NumOpClasses}); got != "[alu mpy mem br copy opclass(5)]" {
		t.Errorf("op class mnemonics = %s", got)
	}
}
