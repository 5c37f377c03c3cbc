package merge

// This file is the merge compilation step of the simulator hot path
// (DESIGN.md): a scheme is flattened once, at Selector build time, into
// its left-deep chains or one of the two baseline policies, and
// SelectPacked (packed.go) then selects without recursion, per-cycle
// interface dispatch through child nodes, or heap allocation.
//
// A chain starts at a node and follows first inputs down to a leaf; the
// greedy all-or-nothing merge visits its inputs in a fixed order with a
// fixed merge kind per input, so a chain folds into a per-input
// (source, kind) step list. Left-deep trees — every input after a
// node's first is a leaf — are one chain and cover the paper's dominant
// shapes (all 3XYZ cascades, the flat parallel C<n>/CSMT nodes, the
// hybrid parallel-CSMT cascades like 2SC3 and 4SC3C3C3). Everything
// else — the balanced 2XY trees, custom trees with interior non-first
// subtrees — runs one chain per non-first subtree, each leaving its
// selection in a slot, before the root's. Every tree folds through the
// one loop, foldChain.

// evalKind identifies the evaluator a compiled scheme uses.
type evalKind uint8

const (
	evalTree evalKind = iota // merge tree: subtree chains through slots, then the root's
	evalIMT                  // interleaved baseline: lowest valid port
	evalBMT                  // block baseline: current port while valid
)

// foldStep is one input visit of a chain: join the candidate at port,
// or when slot is set the selection in slot port, into the accumulator
// under kind. The kind of the first accumulated step is irrelevant (it
// becomes the base packet).
type foldStep struct {
	port uint8
	slot bool
	kind Kind
}

// Compiled is a merge scheme flattened for fast selection on the packed
// occupancy dictionary (SelectPacked). It selects bit-identically to the
// scheme's reference Selector — the Tree's recursive walk, IMT or BMT —
// which the differential tests enforce. The chain slots and BMT's
// current port make an instance single-simulator state: build one per
// run via Scheme.Selector.
type Compiled struct {
	name   string
	ports  int
	tree   *Tree // nil for the baselines
	kind   evalKind
	chains [][]foldStep // evalTree: the subtree chains in evaluation order, then the root's
	slots  []chainSlot  // evalTree scratch: slot i holds chain i's result
	cur    uint         // evalBMT: the port that keeps issuing while valid
}

// Compile flattens t into its chains. The result selects exactly like
// t.Select.
func Compile(t *Tree) *Compiled {
	c := &Compiled{name: t.Name(), ports: t.Ports(), tree: t, kind: evalTree}
	root := chainSteps(t.root, &c.chains)
	c.slots = make([]chainSlot, len(c.chains))
	c.chains = append(c.chains, root)
	return c
}

// compileBaseline builds the evaluator of the IMT or BMT baseline at
// ports thread ports.
func compileBaseline(name string, ports int) *Compiled {
	kind := evalIMT
	if name == "BMT" {
		kind = evalBMT
	}
	return &Compiled{name: name, ports: ports, kind: kind}
}

// chainSteps returns the steps of the left-deep chain that starts at
// n. A chain runs from a node down its first inputs to a leaf; every
// input of a node on it is joined under that node's kind, so the greedy
// recursive selection of the chain is one ordered fold: the bottom
// leaf, then each node's later inputs, bottom node first. A later input
// that is a subtree becomes a chain of its own, appended to subs before
// the chain that reads it (its step reads slot i, the result of
// (*subs)[i]), so the root's chain can run last. Selection is pure, so
// evaluating a subtree early cannot change what it selects.
func chainSteps(n *Node, subs *[][]foldStep) []foldStep {
	size := 1
	for x := n; x != nil; x = x.Inputs[0].Node {
		size += len(x.Inputs) - 1
	}
	return foldSteps(n, make([]foldStep, 0, size), subs)
}

// foldSteps appends the steps of the chain part from n down to its
// bottom leaf.
func foldSteps(n *Node, steps []foldStep, subs *[][]foldStep) []foldStep {
	if first := n.Inputs[0]; first.Node != nil {
		steps = foldSteps(first.Node, steps, subs)
	} else {
		steps = append(steps, foldStep{port: uint8(first.Port), kind: n.Kind})
	}
	for _, in := range n.Inputs[1:] {
		if in.Node == nil {
			steps = append(steps, foldStep{port: uint8(in.Port), kind: n.Kind})
			continue
		}
		sub := chainSteps(in.Node, subs)
		*subs = append(*subs, sub)
		steps = append(steps, foldStep{port: uint8(len(*subs) - 1), slot: true, kind: n.Kind})
	}
	return steps
}

// Name returns the scheme name the evaluator was built for.
func (c *Compiled) Name() string { return c.name }

// Ports returns the number of thread ports the evaluator merges.
func (c *Compiled) Ports() int { return c.ports }

// Tree returns the scheme tree the evaluator was compiled from, or nil
// for the IMT and BMT baselines.
func (c *Compiled) Tree() *Tree { return c.tree }

// Stateful reports whether the evaluator keeps state across calls (the
// BMT baseline's current port). A stateful evaluator must see every
// non-empty call; a stateless one may be skipped when its result is
// known, e.g. a lone candidate, which every other kind selects whole.
func (c *Compiled) Stateful() bool { return c.kind == evalBMT }
