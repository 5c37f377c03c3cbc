// Package logic is a structural gate-level netlist builder with a static
// CMOS cost model. The merge-control circuits of the paper (CSMT serial,
// CSMT parallel, SMT, and their scheme compositions) are generated as
// netlists, evaluated for functional equivalence against internal/merge,
// and costed in transistors and gate delays — the repository's stand-in
// for the methodology of the paper's reference [7], whose absolute numbers
// are not public.
package logic

import "fmt"

// Signal identifies a net (the output of a gate or an input).
type Signal int32

// Kind enumerates gate types.
type Kind uint8

const (
	// KInput is a primary input.
	KInput Kind = iota
	// KConst is a constant 0/1 net (free: wired to a rail).
	KConst
	// KNot is an inverter.
	KNot
	// KAnd and KOr are standard static CMOS gates (NAND/NOR + inverter).
	KAnd
	KOr
)

type gate struct {
	kind Kind
	ins  []Signal
	val  bool // KConst value
	name string
}

// transistors returns the static CMOS transistor cost of the gate:
// inverter 2, k-input NAND/NOR 2k, so AND/OR cost 2k+2.
func (g *gate) transistors() int {
	switch g.kind {
	case KNot:
		return 2
	case KAnd, KOr:
		return 2*len(g.ins) + 2
	default:
		return 0
	}
}

// delay returns the gate delay contribution: one logic level per cell.
// Depth is counted in logic levels (the convention of gate-delay figures
// in the paper's reference [7]): AND/OR cells are realised as single
// complex static-CMOS stages for delay purposes, while their transistor
// cost above still accounts for the output inverter.
func (g *gate) delay() int {
	switch g.kind {
	case KNot, KAnd, KOr:
		return 1
	default:
		return 0
	}
}

// maxFanIn bounds gate fan-in; wider operations decompose into trees.
const maxFanIn = 4

// Netlist is a built circuit: gates in topological order (construction
// order), named primary inputs and named outputs.
type Netlist struct {
	gates   []gate
	inputs  []Signal
	outputs []Signal
	outName []string
}

// Builder constructs a Netlist.
type Builder struct {
	n      Netlist
	const0 Signal
	const1 Signal
}

// NewBuilder returns an empty circuit builder with constant rails.
func NewBuilder() *Builder {
	b := &Builder{}
	b.const0 = b.add(gate{kind: KConst, val: false})
	b.const1 = b.add(gate{kind: KConst, val: true})
	return b
}

func (b *Builder) add(g gate) Signal {
	b.n.gates = append(b.n.gates, g)
	return Signal(len(b.n.gates) - 1)
}

// Const returns the constant signal v.
func (b *Builder) Const(v bool) Signal {
	if v {
		return b.const1
	}
	return b.const0
}

// Input declares a named primary input.
func (b *Builder) Input(name string) Signal {
	s := b.add(gate{kind: KInput, name: name})
	b.n.inputs = append(b.n.inputs, s)
	return s
}

// Not returns the negation of a, folding constants and double negation.
func (b *Builder) Not(a Signal) Signal {
	g := &b.n.gates[a]
	switch g.kind {
	case KConst:
		return b.Const(!g.val)
	case KNot:
		return g.ins[0]
	}
	return b.add(gate{kind: KNot, ins: []Signal{a}})
}

func (b *Builder) nary(kind Kind, xs []Signal) Signal {
	// Constant folding: drop identity elements (1 for AND, 0 for OR) and
	// short-circuit on absorbing elements (0 for AND, 1 for OR).
	identity := kind == KAnd
	var live []Signal
	for _, x := range xs {
		g := &b.n.gates[x]
		if g.kind == KConst {
			if g.val == identity {
				continue
			}
			return b.Const(!identity)
		}
		live = append(live, x)
	}
	switch len(live) {
	case 0:
		return b.Const(identity) // AND() = 1, OR() = 0
	case 1:
		return live[0]
	}
	for len(live) > maxFanIn {
		var next []Signal
		for i := 0; i < len(live); i += maxFanIn {
			end := i + maxFanIn
			if end > len(live) {
				end = len(live)
			}
			chunk := live[i:end]
			if len(chunk) == 1 {
				next = append(next, chunk[0])
				continue
			}
			next = append(next, b.add(gate{kind: kind, ins: append([]Signal(nil), chunk...)}))
		}
		live = next
	}
	return b.add(gate{kind: kind, ins: append([]Signal(nil), live...)})
}

// And returns the conjunction of xs (trees above fan-in 4).
func (b *Builder) And(xs ...Signal) Signal { return b.nary(KAnd, xs) }

// Or returns the disjunction of xs (trees above fan-in 4).
func (b *Builder) Or(xs ...Signal) Signal { return b.nary(KOr, xs) }

// Output marks s as a named circuit output.
func (b *Builder) Output(name string, s Signal) {
	b.n.outputs = append(b.n.outputs, s)
	b.n.outName = append(b.n.outName, name)
}

// Build finalises and returns the netlist.
func (b *Builder) Build() *Netlist {
	n := b.n
	return &n
}

// NumGates returns the number of live logic gates (inverters/AND/OR
// reachable from the outputs).
func (n *Netlist) NumGates() int {
	count := 0
	for i, l := range n.liveSet() {
		if l {
			switch n.gates[i].kind {
			case KNot, KAnd, KOr:
				count++
			}
		}
	}
	return count
}

// liveSet marks gates reachable from outputs.
func (n *Netlist) liveSet() []bool {
	live := make([]bool, len(n.gates))
	var stack []Signal
	stack = append(stack, n.outputs...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[s] {
			continue
		}
		live[s] = true
		stack = append(stack, n.gates[s].ins...)
	}
	return live
}

// Cost returns the transistor count and the critical-path depth in gate
// delays of the live circuit (logic reachable from the outputs; dead gates
// would be removed by synthesis and are not charged).
func (n *Netlist) Cost() (transistors, delay int) {
	live := n.liveSet()
	depth := make([]int, len(n.gates))
	for i := range n.gates {
		if !live[i] {
			continue
		}
		g := &n.gates[i]
		transistors += g.transistors()
		d := 0
		for _, in := range g.ins {
			if depth[in] > d {
				d = depth[in]
			}
		}
		depth[i] = d + g.delay()
	}
	for _, o := range n.outputs {
		if depth[o] > delay {
			delay = depth[o]
		}
	}
	return transistors, delay
}

// Eval computes all outputs for the given input assignment (values indexed
// like the inputs passed to Input, in declaration order).
func (n *Netlist) Eval(inputs []bool) ([]bool, error) {
	if len(inputs) != len(n.inputs) {
		return nil, fmt.Errorf("logic: %d input values for %d inputs", len(inputs), len(n.inputs))
	}
	val := make([]bool, len(n.gates))
	ii := 0
	for i := range n.gates {
		g := &n.gates[i]
		switch g.kind {
		case KInput:
			val[i] = inputs[ii]
			ii++
		case KConst:
			val[i] = g.val
		case KNot:
			val[i] = !val[g.ins[0]]
		case KAnd:
			v := true
			for _, in := range g.ins {
				v = v && val[in]
			}
			val[i] = v
		case KOr:
			v := false
			for _, in := range g.ins {
				v = v || val[in]
			}
			val[i] = v
		}
	}
	out := make([]bool, len(n.outputs))
	for i, o := range n.outputs {
		out[i] = val[o]
	}
	return out, nil
}
