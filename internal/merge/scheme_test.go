package merge

import (
	"strings"
	"testing"
)

func TestParsePaperSchemes(t *testing.T) {
	want := map[string]string{
		"C4":   "C4(T0,T1,T2,T3)",
		"3CCC": "C(C(C(T0,T1),T2),T3)",
		"2CC":  "C(C(T0,T1),C(T2,T3))",
		"1S":   "S(T0,T1)",
		"2SC3": "C3(S(T0,T1),T2,T3)",
		"3CSC": "C(S(C(T0,T1),T2),T3)",
		"2C3S": "S(C3(T0,T1,T2),T3)",
		"3CCS": "S(C(C(T0,T1),T2),T3)",
		"3SCC": "C(C(S(T0,T1),T2),T3)",
		"2CS":  "S(C(T0,T1),C(T2,T3))",
		"2SC":  "C(S(T0,T1),S(T2,T3))",
		"3SSC": "C(S(S(T0,T1),T2),T3)",
		"3SCS": "S(C(S(T0,T1),T2),T3)",
		"3CSS": "S(S(C(T0,T1),T2),T3)",
		"2SS":  "S(S(T0,T1),S(T2,T3))",
		"3SSS": "S(S(S(T0,T1),T2),T3)",
	}
	for _, name := range PaperSchemes4() {
		tree, err := parseName(name)
		if err != nil {
			t.Errorf("parseName(%q): %v", name, err)
			continue
		}
		if tree.Name() != name {
			t.Errorf("tree name %q, want %q", tree.Name(), name)
		}
		if got := tree.String(); got != want[name] {
			t.Errorf("parseName(%q) = %s, want %s", name, got, want[name])
		}
		if tree.Ports() != mustPorts(t, name) {
			t.Errorf("parseName(%q).Ports() = %d, want %d", name, tree.Ports(), mustPorts(t, name))
		}
	}
}

func TestParseCoversAllSixteen(t *testing.T) {
	if got := len(PaperSchemes4()); got != 16 {
		t.Fatalf("PaperSchemes4 lists %d schemes, want 16", got)
	}
	seen := map[string]bool{}
	for _, n := range PaperSchemes4() {
		if seen[n] {
			t.Errorf("duplicate scheme %q", n)
		}
		seen[n] = true
	}
}

func TestParseGeneralizations(t *testing.T) {
	// 3-thread cascade: the paper names fix 2SC as the balanced 4-thread
	// tree, so a 3-thread SMT-then-CSMT cascade is a tree expression.
	tree, err := ParseTreeExpr("C(S(T0,T1),T2)")
	if err != nil {
		t.Fatalf("ParseTreeExpr(C(S(T0,T1),T2)): %v", err)
	}
	if got := tree.String(); got != "C(S(T0,T1),T2)" || tree.Ports() != 3 {
		t.Errorf("3-thread cascade = %s on %d ports", got, tree.Ports())
	}
	// 8-thread SMT cascade.
	tree, err = parseName("7SSSSSSS")
	if err != nil {
		t.Fatalf("parseName(7SSSSSSS): %v", err)
	}
	if tree.Ports() != 8 {
		t.Errorf("8-thread cascade ports = %d", tree.Ports())
	}
	// 8-thread parallel CSMT.
	tree, err = parseName("C8")
	if err != nil {
		t.Fatalf("parseName(C8): %v", err)
	}
	if !strings.HasPrefix(tree.String(), "C8(") {
		t.Errorf("parseName(C8) = %s", tree.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, name := range []string{
		"",
		"XSS",
		"3SS",   // declares 3 levels, names 2
		"3SSSS", // declares 3 levels, names 4
		"CX",    // bad arity
		"2S3C",  // parallel multi-input SMT not defined
		"3S1C",  // arity < 2
		"0S",    // zero levels
		"C1",    // parallel CSMT needs >= 2
	} {
		if _, err := Resolve(name); err == nil {
			t.Errorf("Resolve(%q) unexpectedly succeeded", name)
		}
	}
	// A well-formed name fixes its own port count; a selector for any
	// other width is rejected.
	cases := []struct {
		name  string
		ports int
	}{
		{"3SSS", 5},
		{"C4", 2},
		{"2SC3", 5},
		{"2CC", 5},
		{"9SSSSSSSSS", 4},
	}
	for _, tc := range cases {
		s, err := Resolve(tc.name)
		if err != nil {
			t.Errorf("Resolve(%q): %v", tc.name, err)
			continue
		}
		if _, err := s.Selector(tc.ports); err == nil {
			t.Errorf("%s.Selector(%d) unexpectedly succeeded", tc.name, tc.ports)
		}
	}
}

func TestNewTreeValidation(t *testing.T) {
	// Port used twice.
	n := &Node{Kind: SMT, Inputs: []Input{Leaf(0), Leaf(0)}}
	if _, err := NewTree("bad", n, 2); err == nil {
		t.Error("duplicate port accepted")
	}
	// Port out of range.
	n = &Node{Kind: SMT, Inputs: []Input{Leaf(0), Leaf(5)}}
	if _, err := NewTree("bad", n, 2); err == nil {
		t.Error("out-of-range port accepted")
	}
	// Unused port.
	n = &Node{Kind: SMT, Inputs: []Input{Leaf(0), Leaf(1)}}
	if _, err := NewTree("bad", n, 3); err == nil {
		t.Error("unused port accepted")
	}
	// Single-input node.
	n = &Node{Kind: SMT, Inputs: []Input{Leaf(0)}}
	if _, err := NewTree("bad", n, 1); err == nil {
		t.Error("single-input node accepted")
	}
	// Nil subtree.
	n = &Node{Kind: SMT, Inputs: []Input{Sub(nil), Leaf(0)}}
	if _, err := NewTree("bad", n, 1); err == nil {
		t.Error("nil subtree accepted")
	}
}

func TestKindString(t *testing.T) {
	if SMT.String() != "SMT" || CSMT.String() != "CSMT" {
		t.Error("Kind.String mismatch")
	}
	if SMT.Letter() != "S" || CSMT.Letter() != "C" {
		t.Error("Kind.Letter mismatch")
	}
}

// mustPorts resolves a scheme name's port count, failing the test on
// an unknown name.
func mustPorts(t testing.TB, name string) int {
	t.Helper()
	n, err := Ports(name)
	if err != nil {
		t.Fatalf("Ports(%q): %v", name, err)
	}
	return n
}

func TestPortsInference(t *testing.T) {
	cases := map[string]int{
		"1S": 2, "1C": 2,
		"3SSS": 4, "3CCC": 4, "2SC3": 4, "2C3S": 4, "C4": 4,
		"2CC": 4, "2SS": 4, "2SC": 4, "2CS": 4, // balanced convention
		"C8": 8, "7SSSSSSS": 8, "7CCCCCCC": 8, "2SC7": 8, "4SC3C3C3": 8,
		"C2": 2, "5SSSSS": 6,
	}
	for name, want := range cases {
		if got, err := Ports(name); err != nil || got != want {
			t.Errorf("Ports(%q) = %d, %v; want %d", name, got, err, want)
		}
	}
	// Every inferred count must be the built tree's own.
	for _, name := range []string{"C8", "7SSSSSSS", "7CCCCCCC", "2SC7", "4SC3C3C3"} {
		if tree, err := parseName(name); err != nil || tree.Ports() != mustPorts(t, name) {
			t.Errorf("parseName(%s) = %v, %v; want %d ports", name, tree, err, mustPorts(t, name))
		}
	}
}
