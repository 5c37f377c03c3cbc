package merge

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Scheme is a first-class merge scheme: a named merge tree, or one of
// the IMT/BMT baselines (which have no tree — they time-multiplex a
// single issuing thread). Scheme is an immutable value type; the zero
// Scheme means "unset" and resolves nothing.
type Scheme struct {
	name     string
	tree     *Tree
	baseline string // "IMT" or "BMT"; empty for tree-backed schemes
}

// FromTree wraps an explicit merge tree as a Scheme.
func FromTree(t *Tree) (Scheme, error) {
	if t == nil {
		return Scheme{}, fmt.Errorf("merge: nil tree")
	}
	return Scheme{name: t.Name(), tree: t}, nil
}

// IsZero reports whether the Scheme is unset.
func (s Scheme) IsZero() bool { return s.name == "" && s.tree == nil && s.baseline == "" }

// Name returns the scheme's name: a paper name, a baseline name, the
// label given by WithName, or the canonical tree rendering for
// anonymous trees.
func (s Scheme) Name() string { return s.name }

// Tree returns the merge tree, or nil for the baselines and the zero
// Scheme.
func (s Scheme) Tree() *Tree { return s.tree }

// baselinePorts is the context count a baseline defaults to when the
// caller does not fix one: the paper's 4-thread machine.
const baselinePorts = 4

// Ports returns the number of hardware thread ports the scheme merges.
// The baselines run at any width and report the paper's default of 4;
// the zero Scheme reports 0.
func (s Scheme) Ports() int {
	switch {
	case s.tree != nil:
		return s.tree.Ports()
	case s.baseline != "":
		return baselinePorts
	}
	return 0
}

// String returns the scheme in a form Resolve accepts back: the
// canonical tree grammar for tree-backed schemes, the name for
// baselines.
func (s Scheme) String() string {
	if s.tree != nil {
		return s.tree.String()
	}
	return s.name
}

// WithName returns a copy of s labelled name; the merge behaviour is
// unchanged. It lets a custom name travel with its tree (e.g. across
// the wire). Baselines and the zero Scheme are returned unchanged.
func (s Scheme) WithName(name string) Scheme {
	if name == "" || s.tree == nil {
		return s
	}
	return Scheme{name: name, tree: &Tree{name: name, root: s.tree.root, ports: s.tree.ports}}
}

// schemeJSON is the JSON form of a Scheme. Tree is the canonical
// grammar emitted by Tree.String (e.g. "C(S(T0,T1),T2,T3)"); it is
// empty for the IMT/BMT baselines, which Name identifies. A document
// with a tree is self-contained: the receiver rebuilds the exact
// scheme from it, so a custom tree crosses the wire bit-identically.
type schemeJSON struct {
	Name string `json:"name,omitempty"`
	Tree string `json:"tree,omitempty"`
}

// MarshalJSON encodes the scheme as {"name":...,"tree":...}, the tree
// omitted for the baselines; the zero Scheme encodes as null.
func (s Scheme) MarshalJSON() ([]byte, error) {
	if s.IsZero() {
		return []byte("null"), nil
	}
	w := schemeJSON{Name: s.name}
	if s.tree != nil {
		w.Tree = s.tree.String()
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the form MarshalJSON writes: a tree expression
// labelled with the name when a tree is present, else the name
// resolved like Resolve. null decodes to the zero Scheme; an empty
// document or a malformed tree is an error.
func (s *Scheme) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*s = Scheme{}
		return nil
	}
	var w schemeJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if w.Tree != "" {
		t, err := ParseTreeExpr(w.Tree)
		if err != nil {
			return err
		}
		*s = Scheme{name: t.Name(), tree: t}.WithName(w.Name)
		return nil
	}
	if w.Name == "" {
		return fmt.Errorf("merge: scheme has neither a name nor a tree")
	}
	sch, err := Resolve(w.Name)
	if err != nil {
		return err
	}
	*s = sch
	return nil
}

// Selector builds the scheme's compiled evaluator for ports hardware
// thread ports. Tree-backed schemes require ports to match the tree (0
// accepts the tree's own count); the baselines adapt to any positive
// width. Every call returns a fresh instance, safe to hand to one
// simulator: BMT keeps cross-cycle state and trees that are not
// left-deep own per-instance chain slots. The evaluator selects bit-identically to
// the reference Selector; ReferenceSelector exposes the latter for
// refsim and the differential tests.
func (s Scheme) Selector(ports int) (*Compiled, error) {
	sel, err := s.ReferenceSelector(ports)
	if err != nil {
		return nil, err
	}
	if t, ok := sel.(*Tree); ok {
		return Compile(t), nil
	}
	return compileBaseline(s.baseline, ports), nil
}

// ReferenceSelector builds the naive reference Selector for the scheme:
// the recursive tree walk for tree-backed schemes, the IMT/BMT structs
// otherwise. It validates exactly like Selector. The refsim oracle and
// the differential tests use it; the simulator uses Selector, which
// returns the compiled evaluator instead.
func (s Scheme) ReferenceSelector(ports int) (Selector, error) {
	switch s.baseline {
	case "IMT":
		if ports < 1 {
			return nil, fmt.Errorf("merge: IMT needs at least 1 port, got %d", ports)
		}
		return &IMT{NumPorts: ports}, nil
	case "BMT":
		if ports < 1 {
			return nil, fmt.Errorf("merge: BMT needs at least 1 port, got %d", ports)
		}
		return &BMT{NumPorts: ports}, nil
	}
	if s.tree == nil {
		return nil, fmt.Errorf("merge: no scheme set")
	}
	if ports != 0 && ports != s.tree.Ports() {
		return nil, fmt.Errorf("merge: scheme %s merges %d threads, machine has %d ports", s.name, s.tree.Ports(), ports)
	}
	return s.tree, nil
}

// Describe returns a one-line human description of the scheme's
// structure: its family (cascade, balanced tree, parallel node, custom
// tree), merge kinds and thread count.
func (s Scheme) Describe() string {
	switch {
	case s.IsZero():
		return "no merging (single thread)"
	case s.baseline == "IMT":
		return "interleaved multithreading baseline: one thread issues per cycle"
	case s.baseline == "BMT":
		return "block multithreading baseline: the running thread issues until it blocks"
	}
	t := s.tree
	root := t.root
	if root.Parallel && allLeaves(root) {
		return fmt.Sprintf("single-level parallel %s node merging %d threads at once", root.Kind, t.Ports())
	}
	if levels, ok := cascadeLevels(root); ok {
		if len(levels) == 1 {
			return fmt.Sprintf("single %s node merging %d threads", levels[0], t.Ports())
		}
		return fmt.Sprintf("%d-level cascade (%s) merging %d threads", len(levels), strings.Join(levels, ", "), t.Ports())
	}
	if group, ok := balancedKinds(root); ok {
		return fmt.Sprintf("balanced tree merging %d threads: %s groups under a %s root", t.Ports(), group, root.Kind)
	}
	return fmt.Sprintf("custom merge tree over %d threads, depth %d", t.Ports(), nodeDepth(root))
}

// cascadeLevels recognises a left-deep cascade (only the first input of
// each node may be a subtree) and describes its levels root-last, i.e.
// in paper-name order.
func cascadeLevels(n *Node) ([]string, bool) {
	var levels []string
	for {
		for _, in := range n.Inputs[1:] {
			if in.Node != nil {
				return nil, false
			}
		}
		lv := n.Kind.String()
		if n.Parallel {
			lv = fmt.Sprintf("parallel %s x%d", n.Kind, len(n.Inputs))
		}
		levels = append([]string{lv}, levels...)
		first := n.Inputs[0]
		if first.Node == nil {
			return levels, true
		}
		n = first.Node
	}
}

func allLeaves(n *Node) bool {
	for _, in := range n.Inputs {
		if in.Node != nil {
			return false
		}
	}
	return true
}

// balancedKinds recognises a two-level tree whose subtrees are flat
// groups of one common kind.
func balancedKinds(n *Node) (Kind, bool) {
	if len(n.Inputs) < 2 || n.Parallel {
		return 0, false
	}
	var group Kind
	for i, in := range n.Inputs {
		if in.Node == nil || !allLeaves(in.Node) {
			return 0, false
		}
		if i == 0 {
			group = in.Node.Kind
		} else if in.Node.Kind != group {
			return 0, false
		}
	}
	return group, true
}

func nodeDepth(n *Node) int {
	d := 0
	for _, in := range n.Inputs {
		if in.Node != nil {
			if sd := nodeDepth(in.Node); sd > d {
				d = sd
			}
		}
	}
	return d + 1
}

// Resolve turns a scheme-name string into a Scheme. It accepts the
// IMT/BMT baselines, tree expressions in the canonical Tree.String
// grammar ("C(S(T0,T1),T2,T3)") and the paper's scheme names ("3SSS",
// "2SC3", "C4", ...). Unknown names are an error — nothing defaults
// silently.
func Resolve(name string) (Scheme, error) {
	if name == "" {
		return Scheme{}, fmt.Errorf("merge: empty scheme name")
	}
	if name == "IMT" || name == "BMT" {
		return Scheme{name: name, baseline: name}, nil
	}
	if IsTreeExpr(name) {
		t, err := ParseTreeExpr(name)
		if err != nil {
			return Scheme{}, err
		}
		return FromTree(t)
	}
	t, err := parseName(name)
	if err != nil {
		return Scheme{}, err
	}
	return FromTree(t)
}

// Ports returns the number of hardware thread ports the named scheme
// merges, resolving the name exactly like Resolve (so tree expressions
// work, and the baselines report the paper's 4-thread default).
// Unknown names are an error.
func Ports(name string) (int, error) {
	s, err := Resolve(name)
	if err != nil {
		return 0, err
	}
	return s.Ports(), nil
}
