package merge

import (
	"math/rand"
	"testing"

	"vliwmt/internal/isa"
)

// TestCompileShapeDetection pins the chains each paper shape compiles
// to: cascades and flat parallel nodes are the root's chain alone, and a
// balanced tree adds one chain for its second subtree.
func TestCompileShapeDetection(t *testing.T) {
	cases := []struct {
		scheme string
		ports  int
		chains int
	}{
		{"3SSS", 4, 1},
		{"1S", 2, 1},
		{"3CCC", 4, 1},
		{"C4", 4, 1},
		{"C8", 8, 1},
		{"2SC3", 4, 1},
		{"3SCC", 4, 1},
		{"2C3S", 4, 1},
		{"2SS", 4, 2},
		{"2CC", 4, 2},
		{"2CS", 4, 2},
		{"2SC", 4, 2},
	}
	for _, tc := range cases {
		tree := mustParse(t, tc.scheme, tc.ports)
		c := Compile(tree)
		if c.kind != evalTree || len(c.chains) != tc.chains || len(c.slots) != tc.chains-1 {
			t.Errorf("%s: compiled to evaluator %d with %d chains and %d slots, want %d chains",
				tc.scheme, c.kind, len(c.chains), len(c.slots), tc.chains)
		}
		if c.Name() != tree.Name() || c.Ports() != tree.Ports() || c.Tree() != tree {
			t.Errorf("%s: compiled metadata does not match tree", tc.scheme)
		}
	}
}

// TestCompileFoldOrder verifies the fold linearization visits leaves in
// the same priority order as the recursive walk, including permuted
// custom cascades.
func TestCompileFoldOrder(t *testing.T) {
	tree, err := ParseTreeExpr("C(S(T2,T0),T3,T1)")
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(tree)
	if len(c.chains) != 1 {
		t.Fatalf("permuted cascade compiled to %d chains, want 1", len(c.chains))
	}
	wantPorts := []uint8{2, 0, 3, 1}
	wantKinds := []Kind{SMT, SMT, CSMT, CSMT}
	for i, s := range c.chains[0] {
		if s.slot || s.port != wantPorts[i] || (i > 0 && s.kind != wantKinds[i]) {
			t.Fatalf("step %d = {port %d, slot %v, %v}, want {port %d, %v}", i, s.port, s.slot, s.kind, wantPorts[i], wantKinds[i])
		}
	}
}

// randomTree builds a random valid merge tree over ports 0..n-1 in a
// random permutation, with random node kinds, arities and nesting — the
// adversarial input set for the compiled-vs-reference differential.
func randomTree(r *rand.Rand, n int) *Tree {
	perm := r.Perm(n)
	var build func(ports []int) Input
	build = func(ports []int) Input {
		if len(ports) == 1 {
			return Leaf(ports[0])
		}
		// Split into 2..4 groups.
		groups := 2 + r.Intn(3)
		if groups > len(ports) {
			groups = len(ports)
		}
		cuts := append([]int{0}, sortedCuts(r, len(ports), groups)...)
		node := &Node{Kind: Kind(r.Intn(2)), Parallel: r.Intn(2) == 0}
		for i := 0; i < groups; i++ {
			node.Inputs = append(node.Inputs, build(ports[cuts[i]:cuts[i+1]]))
		}
		return Sub(node)
	}
	in := build(perm)
	if in.Node == nil {
		panic("unreachable: n >= 2")
	}
	tree, err := NewTree("random", in.Node, n)
	if err != nil {
		panic(err)
	}
	return tree
}

// sortedCuts picks groups-1 interior cut points plus the end, sorted,
// splitting a length-n slice into groups non-empty parts.
func sortedCuts(r *rand.Rand, n, groups int) []int {
	cuts := map[int]bool{}
	for len(cuts) < groups-1 {
		cuts[1+r.Intn(n-1)] = true
	}
	out := make([]int, 0, groups)
	for c := range cuts {
		out = append(out, c)
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return append(out, n)
}

// TestCompiledMatchesReferenceRandomTrees is the packed-path
// differential beyond the four ports TestSelectPackedMatchesSelect
// enumerates: on C8 and random trees of 5-8
// ports, on the default machine and random geometries, SelectPacked
// must reproduce the reference Tree.Select's mask and merged operation
// count, the two facts the simulator consumes.
func TestCompiledMatchesReferenceRandomTrees(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	machines := []isa.Machine{isa.Default()}
	for i := 0; i < 4; i++ {
		m := isa.Default()
		m.Clusters = 1 + r.Intn(isa.MaxClusters)
		m.IssueWidth = 1 + r.Intn(8)
		m.Muls = 1 + r.Intn(4)
		m.MemUnits = 1 + r.Intn(4)
		m.BranchClusters = r.Intn(m.Clusters + 1)
		machines = append(machines, m)
	}
	trees := []*Tree{mustParse(t, "C8", 8)}
	for i := 0; i < 200; i++ {
		trees = append(trees, randomTree(r, 5+r.Intn(4)))
	}
	for _, tree := range trees {
		c := Compile(tree)
		for mi := range machines {
			m := &machines[mi]
			for i := 0; i < 20; i++ {
				vals, valid := pack(randomCands(r, m, tree.Ports()))
				ref := tree.Select(m, vals, valid)
				mask, ops := selectPacked(t, c, m, vals, valid)
				if mask != ref.Mask || ops != ref.Occ.Ops {
					t.Fatalf("tree %s on %+v: packed (mask %b, ops %d) != reference (mask %b, ops %d), valid %b",
						tree, *m, mask, ops, ref.Mask, ref.Occ.Ops, valid)
				}
			}
		}
	}
}

// FuzzCompiledSelect cross-checks the packed evaluator against the
// reference walk on fuzz-chosen tree expressions and candidate sets.
func FuzzCompiledSelect(f *testing.F) {
	f.Add("C(S(T0,T1),T2,T3)", uint64(1))
	f.Add("S(C(T1,T0),C(T3,T2))", uint64(7))
	f.Add("S(T0,C(T1,T2,S(T3,T4)),T5)", uint64(42))
	f.Fuzz(func(t *testing.T, expr string, seed uint64) {
		tree, err := ParseTreeExpr(expr)
		if err != nil {
			t.Skip()
		}
		m := isa.Default()
		r := rand.New(rand.NewSource(int64(seed)))
		c := Compile(tree)
		for i := 0; i < 20; i++ {
			vals, valid := pack(randomCands(r, &m, tree.Ports()))
			ref := tree.Select(&m, vals, valid)
			mask, ops := selectPacked(t, c, &m, vals, valid)
			if mask != ref.Mask || ops != ref.Occ.Ops {
				t.Fatalf("tree %s: packed (mask %b, ops %d) != reference (mask %b, ops %d)", tree, mask, ops, ref.Mask, ref.Occ.Ops)
			}
		}
	})
}
