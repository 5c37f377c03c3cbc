package merge

import (
	"encoding/json"
	"reflect"
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
		if baseline := name == "IMT" || name == "BMT"; baseline || tree == nil {
			if baseline != (tree == nil) {
				t.Errorf("%s: baseline %v, tree %v", name, baseline, tree)
			}
			continue
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

// TestSchemeJSONRoundTrip checks the scheme's JSON form: paper,
// named custom and baseline schemes survive encode/decode with their
// names and exact merge trees, the bytes are {"name":...,"tree":...}
// with no tree for a baseline, and the zero Scheme is null both ways.
func TestSchemeJSONRoundTrip(t *testing.T) {
	custom, err := Resolve("S(C(T0,T1,T2),T3)")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s    Scheme
		want string
	}{
		{mustResolve(t, "2SC3"), `{"name":"2SC3","tree":"C3(S(T0,T1),T2,T3)"}`},
		{custom.WithName("asym4"), `{"name":"asym4","tree":"S(C(T0,T1,T2),T3)"}`},
		{mustResolve(t, "IMT"), `{"name":"IMT"}`},
		{Scheme{}, `null`},
	} {
		b, err := json.Marshal(c.s)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.want {
			t.Errorf("%s encodes to %s, want %s", c.s.Name(), b, c.want)
		}
		var back Scheme
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if !reflect.DeepEqual(back, c.s) {
			t.Errorf("%s decodes to %s (%s), want %s (%s)", b, back.Name(), back.String(), c.s.Name(), c.s.String())
		}
	}
	for _, doc := range []string{`{}`, `{"tree":"S(T0"}`, `{"name":"NOPE"}`, `"2SC3"`} {
		var s Scheme
		if err := json.Unmarshal([]byte(doc), &s); err == nil {
			t.Errorf("%s decoded to %s", doc, s.Name())
		}
	}
}

func mustResolve(t *testing.T, name string) Scheme {
	t.Helper()
	s, err := Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
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
