// Package merge implements the thread merging schemes that are the paper's
// core contribution: operation-level (SMT) and cluster-level (CSMT) merge
// control blocks composed into cascades, balanced trees and parallel
// multi-input nodes.
//
// A scheme is a tree whose leaves are hardware thread ports and whose
// internal nodes merge their inputs in priority order. Merging is
// all-or-nothing per input: once a group of threads has been merged into a
// packet, a later node either accepts the whole packet or rejects it — the
// restriction the paper calls out for balanced schemes, where a merged
// (T2,T3) packet may fail to combine with (T0,T1) even though T2 alone
// would have fit.
//
// Serial and parallel implementations of a node are functionally
// equivalent (the parallel form checks all candidate subsets at once but
// selects the same greedy, priority-ordered subset); they differ only in
// hardware cost, which internal/logic and internal/cost model.
package merge

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind is the merge type of a node: operation-level or cluster-level.
type Kind uint8

const (
	// SMT merges at operation level, rerouting operations between slots.
	SMT Kind = iota
	// CSMT merges at cluster level: inputs must use disjoint clusters.
	CSMT
)

func (k Kind) String() string {
	if k == SMT {
		return "SMT"
	}
	return "CSMT"
}

// Letter returns the scheme-name letter for the kind ("S" or "C").
func (k Kind) Letter() string {
	if k == SMT {
		return "S"
	}
	return "C"
}

// Input is one ordered input of a merge node: either a leaf thread port
// (Node == nil) or a subtree.
type Input struct {
	Port int
	Node *Node
}

// Leaf returns a leaf input for thread port p.
func Leaf(p int) Input { return Input{Port: p} }

// Sub returns a subtree input.
func Sub(n *Node) Input { return Input{Port: -1, Node: n} }

// Node is one merge control block. Inputs are merged greedily in order:
// the first available input becomes the base packet and each later input
// joins it when compatible under the node's Kind, otherwise the whole
// input is dropped for this cycle.
type Node struct {
	Kind Kind
	// Parallel marks a parallel hardware implementation (all subset checks
	// at once). Selection behaviour is identical to the serial cascade;
	// only the hardware cost differs.
	Parallel bool
	Inputs   []Input
}

// Tree is a complete merging scheme for a fixed number of thread ports.
type Tree struct {
	name  string
	root  *Node
	ports int
}

// Name returns the scheme name (e.g. "2SC3").
func (t *Tree) Name() string { return t.name }

// Ports returns the number of hardware thread ports the scheme merges.
func (t *Tree) Ports() int { return t.ports }

// Root returns the root merge node (used by the cost model).
func (t *Tree) Root() *Node { return t.root }

// MaxPorts bounds the number of thread ports a scheme may merge: the
// selection mask is a uint32, so 32 is a hard hardware-model limit.
const MaxPorts = 32

// NewTree builds a scheme from an explicit node tree, validating that leaf
// ports 0..ports-1 each appear exactly once.
func NewTree(name string, root *Node, ports int) (*Tree, error) {
	if ports < 2 || ports > MaxPorts {
		return nil, fmt.Errorf("merge: scheme %s merges %d threads, want 2..%d", name, ports, MaxPorts)
	}
	seen := make([]bool, ports)
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n == nil {
			return fmt.Errorf("merge: nil node in scheme %s", name)
		}
		if len(n.Inputs) < 2 {
			return fmt.Errorf("merge: node with %d inputs in scheme %s", len(n.Inputs), name)
		}
		for _, in := range n.Inputs {
			if in.Node != nil {
				if err := walk(in.Node); err != nil {
					return err
				}
				continue
			}
			if in.Port < 0 || in.Port >= ports {
				return fmt.Errorf("merge: port %d out of range in scheme %s", in.Port, name)
			}
			if seen[in.Port] {
				return fmt.Errorf("merge: port %d used twice in scheme %s", in.Port, name)
			}
			seen[in.Port] = true
		}
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	for p, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("merge: port %d unused in scheme %s", p, name)
		}
	}
	return &Tree{name: name, root: root, ports: ports}, nil
}

// Cascade builds the serial left-deep scheme merging len(kinds)+1 threads:
// level i merges the accumulated packet with thread port i+1 using kinds[i].
// This is the paper's 3XYZ family ("3SSS", "3CCC", "3SCC", ...).
func Cascade(name string, kinds ...Kind) (*Tree, error) {
	if len(kinds) == 0 {
		return nil, fmt.Errorf("merge: cascade needs at least one level")
	}
	node := &Node{Kind: kinds[0], Inputs: []Input{Leaf(0), Leaf(1)}}
	for i := 1; i < len(kinds); i++ {
		node = &Node{Kind: kinds[i], Inputs: []Input{Sub(node), Leaf(i + 1)}}
	}
	return NewTree(name, node, len(kinds)+1)
}

// Balanced builds the paper's two-level tree scheme for four threads:
// groups (T0,T1) and (T2,T3) merge independently with the group kind and
// the two results merge with the root kind ("2CC", "2CS", "2SC", "2SS").
func Balanced(name string, group, root Kind) (*Tree, error) {
	g1 := &Node{Kind: group, Inputs: []Input{Leaf(0), Leaf(1)}}
	g2 := &Node{Kind: group, Inputs: []Input{Leaf(2), Leaf(3)}}
	return NewTree(name, &Node{Kind: root, Inputs: []Input{Sub(g1), Sub(g2)}}, 4)
}

// ParallelCSMT builds the single-level parallel CSMT scheme merging n
// threads at once (the paper's C4 for n = 4).
func ParallelCSMT(name string, n int) (*Tree, error) {
	if n < 2 {
		return nil, fmt.Errorf("merge: parallel CSMT needs at least 2 threads, got %d", n)
	}
	node := &Node{Kind: CSMT, Parallel: true}
	for p := 0; p < n; p++ {
		node.Inputs = append(node.Inputs, Leaf(p))
	}
	return NewTree(name, node, n)
}

// level describes one parsed cascade level: its kind and, for parallel
// multi-input CSMT levels like the "C3" in "2SC3", the node arity.
type level struct {
	kind  Kind
	arity int // 0 for a plain serial two-input level
}

func parseLevels(s string) ([]level, error) {
	var levels []level
	for i := 0; i < len(s); {
		var k Kind
		switch s[i] {
		case 'S':
			k = SMT
		case 'C':
			k = CSMT
		default:
			return nil, fmt.Errorf("merge: unexpected %q in scheme name", s[i])
		}
		i++
		arity := 0
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			arity = arity*10 + int(s[i]-'0')
			i++
		}
		if arity != 0 {
			if k != CSMT {
				return nil, fmt.Errorf("merge: parallel multi-input merging is only defined for CSMT")
			}
			if arity < 2 {
				return nil, fmt.Errorf("merge: parallel level arity %d too small", arity)
			}
		}
		levels = append(levels, level{kind: k, arity: arity})
	}
	return levels, nil
}

// Parse builds the scheme named name for n thread ports. It understands the
// paper's naming:
//
//   - "Cn" (e.g. "C4"): one parallel CSMT node merging all n threads.
//   - "1S"/"1C": a single two-input node (n = 2).
//   - "kL1L2...Lk" cascades ("3SSS", "3SCC", "2SC3", "2C3S", ...): k levels,
//     each letter optionally followed by a digit marking a parallel
//     multi-input CSMT level; the levels consume thread ports left to right.
//   - "2XY" with plain letters and n = 4 ("2CC", "2CS", "2SC", "2SS"): the
//     balanced tree whose groups (T0,T1), (T2,T3) merge with X and whose
//     root merges with Y.
func Parse(name string, n int) (*Tree, error) {
	if arity, ok, err := parallelArity(name); ok {
		if err != nil {
			return nil, err
		}
		if arity != n {
			return nil, fmt.Errorf("merge: scheme %s merges %d threads, machine has %d ports", name, arity, n)
		}
		return ParallelCSMT(name, n)
	}
	levels, ports, plain, err := parseCounted(name)
	if err != nil {
		return nil, err
	}
	// Port consumption under the cascade interpretation.
	if ports == n {
		return buildCascade(name, levels)
	}
	if len(levels) == 2 && plain && n == 4 {
		return Balanced(name, levels[0].kind, levels[1].kind)
	}
	return nil, fmt.Errorf("merge: scheme %s merges %d threads, machine has %d ports", name, ports, n)
}

// parallelArity recognises the "C<n>" parallel scheme form. ok
// reports whether the name is of that form at all; err reports a
// malformed or out-of-range arity.
func parallelArity(name string) (arity int, ok bool, err error) {
	if len(name) < 2 || name[0] != 'C' || name[1] < '0' || name[1] > '9' {
		return 0, false, nil
	}
	arity, aerr := strconv.Atoi(name[1:])
	if aerr != nil || arity < 2 || arity > MaxPorts {
		return 0, true, fmt.Errorf("merge: bad parallel scheme name %q", name)
	}
	return arity, true, nil
}

// parseCounted parses the "<k><levels>" cascade/balanced name form
// shared by Parse and the name resolver: the level count, the levels,
// and the port consumption under the cascade interpretation. plain
// reports that every level is a serial two-input one — the
// precondition for the paper's balanced-tree naming.
func parseCounted(name string) (levels []level, ports int, plain bool, err error) {
	if name == "" {
		return nil, 0, false, fmt.Errorf("merge: empty scheme name")
	}
	if name[0] < '1' || name[0] > '9' {
		return nil, 0, false, fmt.Errorf("merge: scheme name %q must start with a level count or C<n>", name)
	}
	k := int(name[0] - '0')
	if levels, err = parseLevels(name[1:]); err != nil {
		return nil, 0, false, err
	}
	if len(levels) != k {
		return nil, 0, false, fmt.Errorf("merge: scheme %s declares %d levels but names %d", name, k, len(levels))
	}
	ports, plain = levelsPorts(levels)
	return levels, ports, plain, nil
}

// parseName builds the scheme a paper name canonically denotes,
// deriving the port count from the name itself: "Cn" merges n
// threads, a cascade merges one thread plus one (or arity-1) per
// level, and plain two-level names denote the balanced 4-thread
// trees.
func parseName(name string) (*Tree, error) {
	if arity, ok, err := parallelArity(name); ok {
		if err != nil {
			return nil, err
		}
		return ParallelCSMT(name, arity)
	}
	levels, _, plain, err := parseCounted(name)
	if err != nil {
		return nil, err
	}
	if len(levels) == 2 && plain {
		// The paper's balanced-tree naming (2CC, 2CS, 2SC, 2SS).
		return Balanced(name, levels[0].kind, levels[1].kind)
	}
	return buildCascade(name, levels)
}

// levelsPorts returns the thread-port count a cascade of the given
// levels consumes — one port plus one per serial level (or arity-1 per
// parallel level) — and whether every level is a plain serial one (the
// precondition for the paper's balanced-tree naming).
func levelsPorts(levels []level) (ports int, plain bool) {
	ports, plain = 1, true
	for _, lv := range levels {
		if lv.arity == 0 {
			ports++
			continue
		}
		plain = false
		ports += lv.arity - 1
	}
	return ports, plain
}

func buildCascade(name string, levels []level) (*Tree, error) {
	var node *Node
	next := 0
	takeLeaf := func() Input { in := Leaf(next); next++; return in }
	for i, lv := range levels {
		n := &Node{Kind: lv.kind, Parallel: lv.arity != 0}
		if i == 0 {
			n.Inputs = append(n.Inputs, takeLeaf())
		} else {
			n.Inputs = append(n.Inputs, Sub(node))
		}
		extra := 1
		if lv.arity != 0 {
			extra = lv.arity - 1
		}
		for j := 0; j < extra; j++ {
			n.Inputs = append(n.Inputs, takeLeaf())
		}
		node = n
	}
	return NewTree(name, node, next)
}

// PaperSchemes4 lists, in the paper's Figure 9 order (sorted by transistor
// count), the sixteen schemes the paper evaluates for a 4-thread machine.
// "1S" is the 2-thread SMT reference.
func PaperSchemes4() []string {
	return []string{
		"C4", "3CCC", "2CC", "1S", "2SC3", "3CSC", "2C3S", "3CCS",
		"3SCC", "2CS", "2SC", "3SSC", "3SCS", "3CSS", "2SS", "3SSS",
	}
}

// String renders the tree structure in the canonical grammar
// ParseTreeExpr accepts, e.g. "C(S(T0,T1),T2,T3)".
func (t *Tree) String() string { return renderNode(t.root) }

func renderNode(root *Node) string {
	var b strings.Builder
	var walk func(n *Node)
	walk = func(n *Node) {
		b.WriteString(n.Kind.Letter())
		if n.Parallel {
			fmt.Fprintf(&b, "%d", len(n.Inputs))
		}
		b.WriteByte('(')
		for i, in := range n.Inputs {
			if i > 0 {
				b.WriteByte(',')
			}
			if in.Node != nil {
				walk(in.Node)
			} else {
				fmt.Fprintf(&b, "T%d", in.Port)
			}
		}
		b.WriteByte(')')
	}
	walk(root)
	return b.String()
}
