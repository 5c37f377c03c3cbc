// Package mergetest holds what the merge evaluators' exhaustive tests
// share across packages: every merge tree over a few ports, the
// machines the tests run on and random candidate occupancies.
package mergetest

import (
	"math/bits"
	"math/rand"
	"testing"

	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
)

// Machines are the geometries the exhaustive tests run on: the default
// machine, the paper's Figure 1 example (4 clusters x 2 issue, 1
// multiplier) and a 2-cluster, 8-issue machine whose SMT capacity
// checks are wide.
func Machines() []isa.Machine {
	fig1 := isa.Default()
	fig1.IssueWidth = 2
	fig1.Muls = 1
	wide := isa.Default()
	wide.Clusters = 2
	wide.IssueWidth = 8
	wide.Muls = 3
	wide.MemUnits = 2
	return []isa.Machine{isa.Default(), fig1, wide}
}

// Trees returns every merge tree over ports 0..ports-1 (two or more),
// with each node in every implementation: SMT, serial CSMT and parallel
// CSMT, whose circuits differ.
func Trees(tb testing.TB, ports int) []*merge.Tree {
	tb.Helper()
	var out []*merge.Tree
	for _, in := range subtrees(1<<ports - 1) {
		t, err := merge.NewTree("enum", in.Node, ports)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, t)
	}
	return out
}

// subtrees returns every merge input over exactly the ports in set: the
// leaf for one port, otherwise a node of each implementation over every
// ordered split of set into two or more non-empty parts.
func subtrees(set uint32) []merge.Input {
	if bits.OnesCount32(set) == 1 {
		return []merge.Input{merge.Leaf(bits.TrailingZeros32(set))}
	}
	var out []merge.Input
	var split func(rest uint32, inputs []merge.Input)
	split = func(rest uint32, inputs []merge.Input) {
		if rest == 0 {
			for _, n := range []merge.Node{{Kind: merge.SMT}, {Kind: merge.CSMT}, {Kind: merge.CSMT, Parallel: true}} {
				n.Inputs = inputs
				out = append(out, merge.Sub(&n))
			}
			return
		}
		for part := rest; part != 0; part = (part - 1) & rest {
			if part == set {
				continue // a node has at least two inputs
			}
			for _, in := range subtrees(part) {
				split(rest&^part, append(inputs[:len(inputs):len(inputs)], in))
			}
		}
	}
	split(set, nil)
	return out
}

// LeafOrder appends the ports under n to out in priority (depth-first)
// order.
func LeafOrder(n *merge.Node, out []int) []int {
	for _, in := range n.Inputs {
		if in.Node != nil {
			out = LeafOrder(in.Node, out)
		} else {
			out = append(out, in.Port)
		}
	}
	return out
}

// RandomOcc draws an occupancy that fits m alone, biased towards sparse
// packets, with a cluster-0 branch one time in eight where m has branch
// units.
func RandomOcc(r *rand.Rand, m *isa.Machine) isa.Occupancy {
	var ops []isa.Op
	if m.BranchClusters > 0 && r.Intn(8) == 0 {
		ops = append(ops, isa.Op{Class: isa.OpBranch, Cluster: 0})
	}
	for c := 0; c < m.Clusters; c++ {
		n := r.Intn(m.IssueWidth + 1)
		if c == 0 {
			n = min(n, m.IssueWidth-len(ops)) // a branch takes one slot
		}
		if r.Intn(2) == 0 {
			n = 0
		}
		muls, mems := 0, 0
		for i := 0; i < n; i++ {
			switch r.Intn(5) {
			case 0:
				if muls < m.Muls {
					ops = append(ops, isa.Op{Class: isa.OpMul, Cluster: uint8(c)})
					muls++
					continue
				}
			case 1:
				if mems < m.MemUnits {
					ops = append(ops, isa.Op{Class: isa.OpMem, Cluster: uint8(c)})
					mems++
					continue
				}
			}
			ops = append(ops, isa.Op{Class: isa.OpALU, Cluster: uint8(c)})
		}
	}
	return isa.OccupancyOf(ops)
}
