package merge

import (
	"math/rand"
	"testing"

	"vliwmt/internal/isa"
)

// packDict converts a candidate set to the dictionary + id form
// SelectPacked consumes: every distinct candidate value becomes one
// dictionary entry (here simply one entry per port, which is a legal —
// if maximally redundant — dictionary).
func packDict(t testing.TB, vals []isa.Occupancy) ([]PackedOcc, []int32) {
	t.Helper()
	d := make([]PackedOcc, len(vals))
	ids := make([]int32, len(vals))
	for p := range vals {
		po, ok := PackOcc(&vals[p])
		if !ok {
			t.Fatalf("candidate %d unpackable: %+v", p, vals[p])
		}
		d[p] = po
		ids[p] = int32(p)
	}
	return d, ids
}

// selectPacked runs c's packed evaluator on a candidate set, packing the
// dictionary and the machine limits as the simulator does.
func selectPacked(t testing.TB, c *Compiled, m *isa.Machine, vals []isa.Occupancy, valid uint32) (uint32, uint8) {
	t.Helper()
	lim, ok := PackLimits(m)
	if !ok {
		t.Fatalf("machine unpackable: %+v", *m)
	}
	d, ids := packDict(t, vals)
	return c.SelectPacked(d, &lim, ids, valid)
}

// TestPackOccRoundTrip pins the packed encoding: per-cluster counts land
// in the right bytes, the cluster mask matches ClusterMask, and
// over-limit counts are rejected.
func TestPackOccRoundTrip(t *testing.T) {
	var o isa.Occupancy
	o.Clusters[0] = isa.ClusterUse{Total: 3, Mul: 1, Mem: 2, Branch: 0}
	o.Clusters[3] = isa.ClusterUse{Total: 5, Mul: 0, Mem: 0, Branch: 1}
	o.Ops = 8
	p, ok := PackOcc(&o)
	if !ok {
		t.Fatal("packable occupancy rejected")
	}
	if got := uint8(p.T >> 24); got != 5 {
		t.Errorf("cluster 3 total byte = %d, want 5", got)
	}
	if got := uint8(p.L); got != 2 {
		t.Errorf("cluster 0 mem byte = %d, want 2", got)
	}
	if got := uint8(p.B >> 24); got != 1 {
		t.Errorf("cluster 3 branch byte = %d, want 1", got)
	}
	if p.CM != o.ClusterMask() {
		t.Errorf("CM = %08b, want ClusterMask %08b", p.CM, o.ClusterMask())
	}
	if p.Ops != 8 {
		t.Errorf("Ops = %d, want 8", p.Ops)
	}

	o.Clusters[1].Total = packMax + 1
	if _, ok := PackOcc(&o); ok {
		t.Error("occupancy with count > packMax accepted")
	}
}

// TestPackLimitsRejectsWideMachines: limits beyond the SWAR byte
// headroom must be refused.
func TestPackLimitsRejectsWideMachines(t *testing.T) {
	m := isa.Default()
	if _, ok := PackLimits(&m); !ok {
		t.Fatal("default machine must be packable")
	}
	m.IssueWidth = packMax + 1
	if _, ok := PackLimits(&m); ok {
		t.Error("machine with IssueWidth > packMax accepted")
	}
}

// TestSelectPackedSkipsOneSidedClusters pins the SMT capacity test to
// CompatSMT's skip rule: a cluster only one packet uses is never
// checked, so a packet over a cluster's limit still merges with one
// that leaves that cluster free, as a leaf and as a subtree's slot. The
// simulator never presents such a packet (every instruction fits the
// machine alone), so only this test reaches the rule; the SelectPacked
// contract covers every packable candidate.
func TestSelectPackedSkipsOneSidedClusters(t *testing.T) {
	m := isa.Default()
	var over isa.Occupancy
	over.Clusters[0] = isa.ClusterUse{Total: uint8(m.IssueWidth + 1)}
	over.Ops = uint8(m.IssueWidth + 1)
	free := occOn(1)
	for _, tc := range []struct {
		scheme string
		ports  int
	}{{"1S", 2}, {"3SSS", 4}, {"2SC3", 4}, {"2SS", 4}} {
		tree := mustParse(t, tc.scheme, tc.ports)
		c := Compile(tree)
		for _, at := range [][2]int{{0, 1}, {tc.ports - 1, 0}} {
			cands := make([]*isa.Occupancy, tc.ports)
			cands[at[0]], cands[at[1]] = &over, free
			vals, valid := pack(cands)
			ref := tree.Select(&m, vals, valid)
			if ref.Mask != valid {
				t.Fatalf("%s, over-limit packet at port %d: reference selected %b, want both ports", tc.scheme, at[0], ref.Mask)
			}
			if mask, ops := selectPacked(t, c, &m, vals, valid); mask != ref.Mask || ops != ref.Occ.Ops {
				t.Errorf("%s, over-limit packet at port %d: packed (mask %b, ops %d) != reference (mask %b, ops %d)",
					tc.scheme, at[0], mask, ops, ref.Mask, ref.Occ.Ops)
			}
		}
	}
}

// TestSelectPackedZeroAllocs: selection must never touch the heap — the
// per-cycle contract the simulator's allocation-free core builds on.
func TestSelectPackedZeroAllocs(t *testing.T) {
	m := isa.Default()
	lim, ok := PackLimits(&m)
	if !ok {
		t.Fatal("default machine must be packable")
	}
	r := rand.New(rand.NewSource(13))
	for _, name := range []string{"3SSS", "3CCC", "2SC3", "2SS", "C4", "IMT", "BMT"} {
		s, err := Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Selector(4)
		if err != nil {
			t.Fatal(err)
		}
		vals, valid := pack(randomCands(r, &m, 4))
		d, ids := packDict(t, vals)
		allocs := testing.AllocsPerRun(200, func() {
			c.SelectPacked(d, &lim, ids, valid)
		})
		if allocs != 0 {
			t.Errorf("%s: SelectPacked allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// TestBaselinesMatchReference: the packed IMT and BMT evaluators select
// exactly like the reference structs over random candidate sequences,
// including empty and lone-candidate cycles. BMT carries its current
// port from cycle to cycle, so both sides see the same sequence.
func TestBaselinesMatchReference(t *testing.T) {
	m := isa.Default()
	r := rand.New(rand.NewSource(31))
	for _, name := range []string{"IMT", "BMT"} {
		sch, err := Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ports := range []int{1, 2, 3, 4, 8} {
			ref, err := sch.ReferenceSelector(ports)
			if err != nil {
				t.Fatal(err)
			}
			c, err := sch.Selector(ports)
			if err != nil {
				t.Fatal(err)
			}
			for cycle := 0; cycle < 400; cycle++ {
				vals, valid := pack(randomCands(r, &m, ports))
				if r.Intn(3) == 0 {
					valid &= 1 << uint(r.Intn(ports)) // a lone candidate, or none
				}
				want := ref.Select(&m, vals, valid)
				mask, ops := selectPacked(t, c, &m, vals, valid)
				if mask != want.Mask || ops != want.Occ.Ops {
					t.Fatalf("%s/%d cycle %d: packed (mask %b, ops %d) != reference (mask %b, ops %d), valid %b",
						name, ports, cycle, mask, ops, want.Mask, want.Occ.Ops, valid)
				}
			}
		}
	}
}

// TestPackingTotalForValidInput: packing cannot fail on validated input,
// so the simulator's pack errors are guards rather than paths. The
// widest valid machine packs. Every valid machine's per-cluster limits
// are at most the widest one's and FitsAlone requires clusters beyond a
// machine to be zero, so an occupancy that fits any valid machine fits
// the widest; and since FitsAlone and PackOcc both bound each count on
// each cluster independently, sweeping every count of every slot class
// on every cluster, plus the all-maximal corner, covers all of them.
func TestPackingTotalForValidInput(t *testing.T) {
	wide := isa.Default()
	wide.Clusters = isa.MaxClusters
	wide.IssueWidth = isa.MaxIssueWidth
	wide.Muls = isa.MaxIssueWidth
	wide.MemUnits = isa.MaxIssueWidth
	wide.BranchClusters = isa.MaxClusters
	if err := wide.Validate(); err != nil {
		t.Fatalf("widest machine invalid: %v", err)
	}
	if _, ok := PackLimits(&wide); !ok {
		t.Fatalf("PackLimits rejects the widest valid machine %+v", wide)
	}
	var corner isa.Occupancy
	for c := range corner.Clusters {
		corner.Clusters[c] = isa.ClusterUse{Total: isa.MaxIssueWidth, Mul: isa.MaxIssueWidth, Mem: isa.MaxIssueWidth, Branch: 1}
	}
	if !corner.FitsAlone(&wide) {
		t.Fatalf("all-maximal occupancy does not fit the widest machine: %v", corner)
	}
	if _, ok := PackOcc(&corner); !ok {
		t.Fatalf("PackOcc rejects the all-maximal occupancy %v", corner)
	}
	for c := 0; c < isa.MaxClusters; c++ {
		for field := 0; field < 4; field++ {
			for v := 0; v < 256; v++ {
				var o isa.Occupancy
				u := &o.Clusters[c]
				*[]*uint8{&u.Total, &u.Mul, &u.Mem, &u.Branch}[field] = uint8(v)
				if !o.FitsAlone(&wide) {
					continue
				}
				if _, ok := PackOcc(&o); !ok {
					t.Fatalf("PackOcc rejects %+v on cluster %d, which fits the widest machine", *u, c)
				}
			}
		}
	}
}
