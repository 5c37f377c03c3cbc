package merge

import (
	"math/rand"
	"testing"

	"vliwmt/internal/isa"
)

// TestCompileShapeDetection pins the evaluator each paper shape compiles
// to: cascades and flat parallel nodes fold, balanced trees need the
// stack machine.
func TestCompileShapeDetection(t *testing.T) {
	cases := []struct {
		scheme string
		ports  int
		want   evalKind
	}{
		{"3SSS", 4, evalFold},
		{"1S", 2, evalFold},
		{"3CCC", 4, evalFoldCSMT},
		{"C4", 4, evalFoldCSMT},
		{"C8", 8, evalFoldCSMT},
		{"2SC3", 4, evalFold},
		{"3SCC", 4, evalFold},
		{"2C3S", 4, evalFold},
		{"2SS", 4, evalStack},
		{"2CC", 4, evalStack},
		{"2CS", 4, evalStack},
		{"2SC", 4, evalStack},
	}
	for _, tc := range cases {
		tree := mustParse(t, tc.scheme, tc.ports)
		c := Compile(tree)
		if c.kind != tc.want {
			t.Errorf("%s: compiled to evaluator %d, want %d", tc.scheme, c.kind, tc.want)
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
	if c.kind != evalFold {
		t.Fatalf("permuted cascade compiled to evaluator %d, want fold", c.kind)
	}
	wantPorts := []uint8{2, 0, 3, 1}
	wantKinds := []Kind{SMT, SMT, CSMT, CSMT}
	for i, s := range c.steps {
		if s.port != wantPorts[i] || (i > 0 && s.kind != wantKinds[i]) {
			t.Fatalf("step %d = {port %d, %v}, want {port %d, %v}", i, s.port, s.kind, wantPorts[i], wantKinds[i])
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

// TestCompiledMatchesReferenceRandomTrees is the core differential: on
// random trees of 2..8 ports and random candidate sets, the packed
// evaluator must reproduce the recursive reference selection's mask and
// merged operation count exactly.
func TestCompiledMatchesReferenceRandomTrees(t *testing.T) {
	m := isa.Default()
	r := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(7)
		tree := randomTree(r, n)
		c := Compile(tree)
		for i := 0; i < 50; i++ {
			vals, valid := pack(randomCands(r, &m, n))
			ref := tree.Select(&m, vals, valid)
			mask, ops := selectPacked(t, c, &m, vals, valid)
			if mask != ref.Mask || ops != ref.Occ.Ops {
				t.Fatalf("tree %s: packed (mask %0*b, ops %d) != reference (mask %0*b, ops %d), valid %0*b",
					tree, n, mask, ops, n, ref.Mask, ref.Occ.Ops, n, valid)
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
