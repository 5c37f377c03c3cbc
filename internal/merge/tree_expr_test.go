package merge

import (
	"strings"
	"testing"
)

func TestParseTreeExprRoundTrip(t *testing.T) {
	// Every paper scheme's canonical rendering must re-parse to an
	// equivalent tree.
	for _, name := range PaperSchemes4() {
		tree, err := parseName(name)
		if err != nil {
			t.Fatalf("parseName(%s): %v", name, err)
		}
		back, err := ParseTreeExpr(tree.String())
		if err != nil {
			t.Errorf("ParseTreeExpr(%q): %v", tree.String(), err)
			continue
		}
		if back.String() != tree.String() {
			t.Errorf("round trip %s: %q -> %q", name, tree.String(), back.String())
		}
		if back.Ports() != tree.Ports() {
			t.Errorf("round trip %s: ports %d -> %d", name, tree.Ports(), back.Ports())
		}
	}
}

func TestParseTreeExprCustom(t *testing.T) {
	cases := map[string]string{
		"S(C(T0,T1,T2),T3)":           "S(C(T0,T1,T2),T3)",
		" S( C( T0 ,T1, T2) , T3 ) ":  "S(C(T0,T1,T2),T3)", // whitespace normalised
		"C3(S(T0,T1),S(T2,T3),T4)":    "C3(S(T0,T1),S(T2,T3),T4)",
		"C(S(T0,T1),S(T2,T3))":        "C(S(T0,T1),S(T2,T3))",
		"S(T1,T0)":                    "S(T1,T0)", // priority order preserved
		"C2(C(T0,T1),C2(T2,T3))":      "C2(C(T0,T1),C2(T2,T3))",
		"C8(T0,T1,T2,T3,T4,T5,T6,T7)": "C8(T0,T1,T2,T3,T4,T5,T6,T7)",
	}
	for expr, want := range cases {
		tree, err := ParseTreeExpr(expr)
		if err != nil {
			t.Errorf("ParseTreeExpr(%q): %v", expr, err)
			continue
		}
		if tree.String() != want {
			t.Errorf("ParseTreeExpr(%q) = %q, want %q", expr, tree.String(), want)
		}
		if tree.Name() != want {
			t.Errorf("ParseTreeExpr(%q).Name() = %q, want canonical form", expr, tree.Name())
		}
	}
}

func TestParseTreeExprErrors(t *testing.T) {
	cases := []string{
		"",                    // empty
		"T0",                  // bare leaf, no node
		"S(T0)",               // single input
		"S(T0,T1",             // unclosed
		"S(T0,T1))",           // trailing input
		"X(T0,T1)",            // unknown kind
		"S(T0,T0)",            // duplicate port
		"S(T0,T2)",            // gap: port 1 unused
		"S2(T0,T1)",           // parallel SMT not defined
		"C3(T0,T1)",           // arity/input mismatch
		"C1(T0)",              // arity too small
		"S(T0,)",              // missing input
		"S(,T1)",              // missing input
		"S(T,T1)",             // missing port number
		"S(T0,T999999999999)", // absurd port
		"C(T0,T1,T2,T3,T4,T5,T6,T7,T8,T9,T10,T11,T12,T13,T14,T15,T16,T17,T18,T19,T20,T21,T22,T23,T24,T25,T26,T27,T28,T29,T30,T31,T32)", // > MaxPorts
	}
	for _, expr := range cases {
		if tree, err := ParseTreeExpr(expr); err == nil {
			t.Errorf("ParseTreeExpr(%q) unexpectedly succeeded: %s", expr, tree.String())
		}
	}
}

func TestTreeFromNode(t *testing.T) {
	root := &Node{Kind: SMT, Inputs: []Input{
		Sub(&Node{Kind: CSMT, Inputs: []Input{Leaf(0), Leaf(1), Leaf(2)}}),
		Leaf(3),
	}}
	tree, err := treeFromNode(root)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Ports() != 4 {
		t.Errorf("ports = %d, want 4", tree.Ports())
	}
	if tree.Name() != "S(C(T0,T1,T2),T3)" {
		t.Errorf("derived name = %q", tree.Name())
	}
}

// FuzzParseTreeExpr checks the parser's safety and normalisation
// invariants on arbitrary inputs: it must never panic, and any
// accepted expression must re-render and re-parse to a fixed point.
func FuzzParseTreeExpr(f *testing.F) {
	for _, name := range PaperSchemes4() {
		if tree, err := parseName(name); err == nil {
			f.Add(tree.String())
		}
	}
	f.Add("S(C(T0,T1,T2),T3)")
	f.Add("C3(S(T0,T1),S(T2,T3),T4)")
	f.Add(" S( T1 , T0 ) ")
	f.Add("S(T0,T1")
	f.Add("C99(T0,T1)")
	f.Add("T0")
	f.Add("S((")
	f.Add(strings.Repeat("S(", 100))
	f.Fuzz(func(t *testing.T, expr string) {
		tree, err := ParseTreeExpr(expr)
		if err != nil {
			return
		}
		canon := tree.String()
		back, err := ParseTreeExpr(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted input %q rejected: %v", canon, expr, err)
		}
		if back.String() != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, back.String())
		}
		if tree.Ports() < 2 || tree.Ports() > MaxPorts {
			t.Fatalf("accepted tree with %d ports", tree.Ports())
		}
	})
}
