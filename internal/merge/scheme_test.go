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
		tree, err := Parse(name, mustPorts(t, name))
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
			continue
		}
		if tree.Name() != name {
			t.Errorf("tree name %q, want %q", tree.Name(), name)
		}
		if got := tree.String(); got != want[name] {
			t.Errorf("Parse(%q) = %s, want %s", name, got, want[name])
		}
		if tree.Ports() != mustPorts(t, name) {
			t.Errorf("Parse(%q).Ports() = %d, want %d", name, tree.Ports(), mustPorts(t, name))
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
	// 3-thread cascade.
	tree, err := Parse("2SC", 3)
	if err != nil {
		t.Fatalf("Parse(2SC, 3): %v", err)
	}
	if got := tree.String(); got != "C(S(T0,T1),T2)" {
		t.Errorf("Parse(2SC, 3) = %s", got)
	}
	// 8-thread SMT cascade.
	tree, err = Parse("7SSSSSSS", 8)
	if err != nil {
		t.Fatalf("Parse(7SSSSSSS, 8): %v", err)
	}
	if tree.Ports() != 8 {
		t.Errorf("8-thread cascade ports = %d", tree.Ports())
	}
	// 8-thread parallel CSMT.
	tree, err = Parse("C8", 8)
	if err != nil {
		t.Fatalf("Parse(C8, 8): %v", err)
	}
	if !strings.HasPrefix(tree.String(), "C8(") {
		t.Errorf("Parse(C8, 8) = %s", tree.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name  string
		ports int
	}{
		{"", 4},
		{"XSS", 4},
		{"3SS", 4},   // declares 3 levels, names 2
		{"3SSSS", 4}, // declares 3 levels, names 4
		{"3SSS", 5},  // wrong port count
		{"C4", 2},    // wrong port count
		{"CX", 4},    // bad arity
		{"2S3C", 4},  // parallel multi-input SMT not defined
		{"3S1C", 4},  // arity < 2
		{"2SC3", 5},  // wrong port count
		{"0S", 2},    // zero levels
		{"2CC", 5},   // neither cascade (3) nor balanced (4)
		{"C1", 1},    // parallel CSMT needs >= 2
		{"9SSSSSSSSS", 4},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.name, tc.ports); err == nil {
			t.Errorf("Parse(%q, %d) unexpectedly succeeded", tc.name, tc.ports)
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
	// Every inferred count must round-trip through Parse.
	for _, name := range []string{"C8", "7SSSSSSS", "7CCCCCCC", "2SC7", "4SC3C3C3"} {
		if _, err := Parse(name, mustPorts(t, name)); err != nil {
			t.Errorf("Parse(%s, Ports) failed: %v", name, err)
		}
	}
}
