package merge

// This file is the merge compilation step of the simulator hot path
// (DESIGN.md): a scheme is flattened once, at Selector build time, into
// a linear fold over its leaves, a post-order instruction array or one
// of the two baseline policies, and SelectPacked (packed.go) then
// selects without recursion, per-cycle interface dispatch through child
// nodes, or heap allocation.
//
// Shape detection is automatic. Left-deep trees — every input after a
// node's first is a leaf, and the first input chains down to a leaf —
// cover the paper's dominant shapes (all 3XYZ cascades, the flat
// parallel C<n>/CSMT nodes, the hybrid parallel-CSMT cascades like 2SC3
// and 4SC3C3C3) and fold into a per-leaf (port, kind) step list, because
// the greedy all-or-nothing merge visits their leaves in a fixed order
// with a fixed merge kind per leaf. Pure-CSMT folds get a specialized
// loop that needs no slot counts. Everything else — the balanced 2XY
// trees, custom trees with interior non-first subtrees — runs on a
// small stack machine over a preallocated scratch buffer.

// evalKind identifies the specialized evaluator a compiled scheme uses.
type evalKind uint8

const (
	evalFold     evalKind = iota // left-deep tree, SMT or mixed levels
	evalFoldCSMT                 // left-deep tree, every merge level CSMT
	evalStack                    // general post-order stack program
	evalIMT                      // interleaved baseline: lowest valid port
	evalBMT                      // block baseline: current port while valid
)

// foldStep is one leaf visit of a linear fold: join the candidate at
// port into the accumulator under kind. The kind of the first
// accumulated step is irrelevant (it becomes the base packet).
type foldStep struct {
	port uint8
	kind Kind
}

// Stack-program opcodes. Leaves push the port's candidate (or the empty
// selection); merge opcodes fold the top n entries in input order.
const (
	opLeaf uint8 = iota
	opMergeSMT
	opMergeCSMT
)

type cinstr struct {
	op  uint8
	arg uint8 // opLeaf: port; opMerge*: input count
}

// Compiled is a merge scheme flattened for fast selection on the packed
// occupancy dictionary (SelectPacked). It selects bit-identically to the
// scheme's reference Selector — the Tree's recursive walk, IMT or BMT —
// which the differential tests enforce. The stack scratch and BMT's
// current port make an instance single-simulator state: build one per
// run via Scheme.Selector.
type Compiled struct {
	name   string
	ports  int
	tree   *Tree // nil for the baselines
	kind   evalKind
	steps  []foldStep // fold evaluators
	prog   []cinstr   // evalStack program
	pstack []pentry   // evalStack scratch, len = max program depth
	cur    uint       // evalBMT: the port that keeps issuing while valid
}

// Compile flattens t into its fastest evaluator form. The result selects
// exactly like t.Select.
func Compile(t *Tree) *Compiled {
	c := &Compiled{name: t.Name(), ports: t.Ports(), tree: t}
	if steps, ok := flattenFold(t.root, nil); ok {
		c.steps = steps
		c.kind = evalFoldCSMT
		for _, s := range steps[1:] {
			if s.kind == SMT {
				c.kind = evalFold
			}
		}
		return c
	}
	c.kind = evalStack
	c.prog, c.pstack = compileStack(t.root)
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

// flattenFold linearizes a left-deep tree into fold steps: node n
// qualifies when all inputs after the first are leaves and the first
// input is a leaf or itself qualifies. Leaf j of a qualifying tree is
// always joined under the kind of the node that owns it, so the greedy
// recursive selection reduces to one ordered fold over the leaves.
func flattenFold(n *Node, steps []foldStep) ([]foldStep, bool) {
	for _, in := range n.Inputs[1:] {
		if in.Node != nil {
			return nil, false
		}
	}
	first := n.Inputs[0]
	if first.Node != nil {
		var ok bool
		if steps, ok = flattenFold(first.Node, steps); !ok {
			return nil, false
		}
	} else {
		steps = append(steps, foldStep{port: uint8(first.Port), kind: n.Kind})
	}
	for _, in := range n.Inputs[1:] {
		steps = append(steps, foldStep{port: uint8(in.Port), kind: n.Kind})
	}
	return steps, true
}

// compileStack emits the post-order program for an arbitrary tree and
// sizes its scratch stack to the program's maximum depth.
func compileStack(root *Node) ([]cinstr, []pentry) {
	var prog []cinstr
	var emit func(n *Node)
	emit = func(n *Node) {
		for _, in := range n.Inputs {
			if in.Node != nil {
				emit(in.Node)
			} else {
				prog = append(prog, cinstr{op: opLeaf, arg: uint8(in.Port)})
			}
		}
		op := opMergeSMT
		if n.Kind == CSMT {
			op = opMergeCSMT
		}
		prog = append(prog, cinstr{op: op, arg: uint8(len(n.Inputs))})
	}
	emit(root)
	depth, maxDepth := 0, 0
	for _, ins := range prog {
		if ins.op == opLeaf {
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		} else {
			depth -= int(ins.arg) - 1
		}
	}
	return prog, make([]pentry, maxDepth)
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
