package merge

import (
	"strings"
	"testing"
)

// TestResolveRoundTripProperty is the scheme round-trip property: for
// every paper scheme plus the IMT/BMT baselines, Resolve(name) agrees
// with Ports, and a tree-backed scheme's canonical rendering
// re-resolves to an equivalent tree.
func TestResolveRoundTripProperty(t *testing.T) {
	names := append(PaperSchemes4(), "IMT", "BMT")
	for _, name := range names {
		s, err := Resolve(name)
		if err != nil {
			t.Errorf("Resolve(%s): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("Resolve(%s).Name() = %q", name, s.Name())
		}
		if n, err := Ports(name); err != nil || n != s.Ports() {
			t.Errorf("Ports(%s) = %d, %v", name, n, err)
		}
		tree := s.Tree()
		if s.IsBaseline() {
			if tree != nil {
				t.Errorf("baseline %s has a tree", name)
			}
			continue
		}
		if tree == nil {
			t.Fatalf("scheme %s has no tree", name)
		}
		back, err := Resolve(tree.String())
		if err != nil {
			t.Errorf("Resolve(%q): %v", tree.String(), err)
			continue
		}
		if back.Tree() == nil || back.Tree().String() != tree.String() {
			t.Errorf("%s: %q did not re-resolve to an equivalent tree", name, tree.String())
		}
	}
}

func TestResolveRejectsUnknownNames(t *testing.T) {
	for _, name := range []string{"", "XX", "NOPE", "2XY", "C1", "S(T0", "3SS", "smt"} {
		if s, err := Resolve(name); err == nil {
			t.Errorf("Resolve(%q) unexpectedly succeeded: %s", name, s.Name())
		}
		if _, err := Ports(name); err == nil {
			t.Errorf("Ports(%q) unexpectedly succeeded", name)
		}
	}
}

func TestSchemeSelector(t *testing.T) {
	s, err := Resolve("2SC3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Selector(4); err != nil {
		t.Errorf("Selector(4): %v", err)
	}
	if _, err := s.Selector(0); err != nil {
		t.Errorf("Selector(0) should accept the tree's own port count: %v", err)
	}
	if _, err := s.Selector(5); err == nil {
		t.Error("Selector(5) accepted a port mismatch")
	}
	imt, err := Resolve("IMT")
	if err != nil {
		t.Fatal(err)
	}
	for _, ports := range []int{1, 4, 8} {
		sel, err := imt.Selector(ports)
		if err != nil {
			t.Fatalf("IMT.Selector(%d): %v", ports, err)
		}
		if sel.Ports() != ports {
			t.Errorf("IMT selector ports = %d, want %d", sel.Ports(), ports)
		}
	}
	if _, err := imt.Selector(0); err == nil {
		t.Error("IMT.Selector(0) accepted")
	}
	// BMT selectors are stateful: every call must return a fresh one.
	bmt, err := Resolve("BMT")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := bmt.Selector(4)
	b, _ := bmt.Selector(4)
	if a == b {
		t.Error("BMT.Selector returned a shared stateful instance")
	}
	if _, err := (Scheme{}).Selector(4); err == nil {
		t.Error("zero Scheme produced a selector")
	}
}

func TestRegistry(t *testing.T) {
	tree, err := ParseTreeExpr("S(C(T0,T1,T2),T3)")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := FromTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := Register("regtest4", sch); err != nil {
		t.Fatal(err)
	}
	defer Unregister("regtest4")

	got, err := Resolve("regtest4")
	if err != nil {
		t.Fatalf("registered name did not resolve: %v", err)
	}
	if got.Name() != "regtest4" || got.Tree() == nil || got.Tree().String() != tree.String() {
		t.Errorf("resolved %q to %s (%s)", "regtest4", got.Name(), got.String())
	}
	if n, err := Ports("regtest4"); err != nil || n != 4 {
		t.Errorf("Ports(regtest4) = %d, %v", n, err)
	}
	if sel, err := NewSelector("regtest4", 4); err != nil || sel.Name() != "regtest4" {
		t.Errorf("NewSelector(regtest4) = %v, %v", sel, err)
	}
	found := false
	for _, s := range Registered() {
		if s.Name() == "regtest4" {
			found = true
		}
	}
	if !found {
		t.Error("Registered() does not list regtest4")
	}

	// Names that collide with the built-in grammar are rejected.
	for _, bad := range []string{"", "IMT", "BMT", "3SSS", "C4", "2CC", "S(T0,T1)"} {
		if err := Register(bad, sch); err == nil {
			t.Errorf("Register(%q) accepted a colliding name", bad)
			Unregister(bad)
		}
	}
	// Baselines cannot be registered (no tree to register).
	imt, _ := Resolve("IMT")
	if err := Register("myimt", imt); err == nil {
		t.Error("baseline registration accepted")
		Unregister("myimt")
	}
	// Unregistered names stop resolving.
	Unregister("regtest4")
	if _, err := Resolve("regtest4"); err == nil {
		t.Error("unregistered name still resolves")
	}
}

func TestSchemeDescribe(t *testing.T) {
	cases := map[string]string{
		"3SSS":                          "cascade",
		"C4":                            "parallel CSMT node",
		"2CC":                           "balanced tree",
		"1S":                            "single SMT node",
		"IMT":                           "interleaved",
		"BMT":                           "block",
		"S(C(T0,T1),C(T2,T3))":          "balanced tree",
		"C(S(T0,T1),S(T2,T3),S(T4,T5))": "balanced tree",
	}
	for name, want := range cases {
		s, err := Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%s): %v", name, err)
		}
		if desc := s.Describe(); !strings.Contains(desc, want) {
			t.Errorf("Describe(%s) = %q, want it to mention %q", name, desc, want)
		}
	}
	if desc := (Scheme{}).Describe(); !strings.Contains(desc, "single thread") {
		t.Errorf("zero Scheme description = %q", desc)
	}
}

func TestSchemeWithName(t *testing.T) {
	s, err := Resolve("S(C(T0,T1,T2),T3)")
	if err != nil {
		t.Fatal(err)
	}
	named := s.WithName("asym4")
	if named.Name() != "asym4" {
		t.Errorf("WithName name = %q", named.Name())
	}
	if named.String() != s.String() {
		t.Errorf("WithName changed the tree: %q vs %q", named.String(), s.String())
	}
	if named.Tree().Name() != "asym4" {
		t.Errorf("WithName tree name = %q", named.Tree().Name())
	}
	imt, _ := Resolve("IMT")
	if got := imt.WithName("x"); got.Name() != "IMT" {
		t.Error("WithName should not relabel baselines")
	}
}
