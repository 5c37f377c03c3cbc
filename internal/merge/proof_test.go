package merge_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/merge/mergetest"
)

// selectionCheck judges the reference selection s = tree.Select(m,
// cands, valid) and returns what is wrong with it, or "".
type selectionCheck func(m *isa.Machine, cands []isa.Occupancy, valid uint32, s merge.Selection) string

// exhaustively runs, for every merge tree of 2-4 ports with each CSMT
// node in both implementations (mergetest.Trees), the check forTree
// builds for it on every mergetest machine and every valid-port mask of
// sampled candidate sets, each candidate fitting the machine alone.
// -short draws two candidate sets per tree and machine instead of eight.
func exhaustively(t *testing.T, forTree func(tree *merge.Tree) selectionCheck) {
	t.Helper()
	samples := 8
	if testing.Short() {
		samples = 2
	}
	machines := mergetest.Machines()
	r := rand.New(rand.NewSource(2009))
	for ports := 2; ports <= 4; ports++ {
		cands := make([]isa.Occupancy, ports)
		for _, tree := range mergetest.Trees(t, ports) {
			check := forTree(tree)
			for mi := range machines {
				m := &machines[mi]
				for s := 0; s < samples; s++ {
					for p := range cands {
						if cands[p] = mergetest.RandomOcc(r, m); !cands[p].FitsAlone(m) {
							t.Fatalf("candidate %v does not fit %+v", cands[p], *m)
						}
					}
					for valid := uint32(0); valid < 1<<ports; valid++ {
						if msg := check(m, cands, valid, tree.Select(m, cands, valid)); msg != "" {
							t.Fatalf("%s on %+v, valid %0*b, candidates %q: %s", tree, *m, ports, valid, cands, msg)
						}
					}
				}
			}
		}
	}
}

// TestSelectPackedMatchesSelect is the packed-path differential on every
// tree of 2-4 ports: SelectPacked must reproduce the reference
// Tree.Select's mask and merged operation count, the two facts the
// simulator consumes. TestCompiledMatchesReferenceRandomTrees and
// FuzzCompiledSelect sample larger trees.
func TestSelectPackedMatchesSelect(t *testing.T) {
	exhaustively(t, func(tree *merge.Tree) selectionCheck {
		c := merge.Compile(tree)
		return func(m *isa.Machine, cands []isa.Occupancy, valid uint32, s merge.Selection) string {
			lim, ok := merge.PackLimits(m)
			dict := make([]merge.PackedOcc, len(cands))
			ids := make([]int32, len(cands))
			for p := range cands {
				po, packed := merge.PackOcc(&cands[p])
				dict[p], ids[p], ok = po, int32(p), ok && packed
			}
			if !ok {
				return "machine or candidates unpackable"
			}
			if mask, ops := c.SelectPacked(dict, &lim, ids, valid); mask != s.Mask || ops != s.Occ.Ops {
				return fmt.Sprintf("packed (mask %b, ops %d) != reference (mask %b, ops %d)", mask, ops, s.Mask, s.Occ.Ops)
			}
			return ""
		}
	})
}

// normalForm splices every first input that is a node of its parent's
// kind into the parent, X(X(a,b),c) -> X(a,b,c), and drops the
// serial/parallel flag. The greedy merge visits the spliced leaves in
// the same order under the same kind, so a tree and its normal form
// select identically; a later input cannot be spliced, because its
// sub-packet merges all-or-nothing.
func normalForm(n *merge.Node) *merge.Node {
	out := &merge.Node{Kind: n.Kind}
	for i, in := range n.Inputs {
		if in.Node == nil {
			out.Inputs = append(out.Inputs, in)
			continue
		}
		sub := normalForm(in.Node)
		if i == 0 && sub.Kind == n.Kind {
			out.Inputs = append(out.Inputs, sub.Inputs...)
		} else {
			out.Inputs = append(out.Inputs, merge.Sub(sub))
		}
	}
	return out
}

func normalTree(t *testing.T, tree *merge.Tree) *merge.Tree {
	t.Helper()
	nf, err := merge.NewTree(tree.Name()+"/normal", normalForm(tree.Root()), tree.Ports())
	if err != nil {
		t.Fatal(err)
	}
	return nf
}

// TestFunctionalEquivalences: every tree of 2-4 ports selects exactly
// like its normal form, on mask and merged occupancy. Among the paper's
// sixteen schemes exactly the three parallel or serial pairs the paper
// equates share a normal form (C4 = 3CCC, 2SC3 = 3SCC, 2C3S = 3CCS);
// the balanced 2CC and 2SS keep their own, because their second group
// merges whole.
func TestFunctionalEquivalences(t *testing.T) {
	exhaustively(t, func(tree *merge.Tree) selectionCheck {
		nf := normalTree(t, tree)
		return func(m *isa.Machine, cands []isa.Occupancy, valid uint32, s merge.Selection) string {
			if got := nf.Select(m, cands, valid); got != s {
				return fmt.Sprintf("normal form %s selects %b (%v), tree %b (%v)", nf, got.Mask, got.Occ, s.Mask, s.Occ)
			}
			return ""
		}
	})

	classes := map[string][]string{}
	for _, name := range merge.PaperSchemes4() {
		s, err := merge.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		nf := normalTree(t, s.Tree()).String()
		classes[nf] = append(classes[nf], name)
	}
	var shared []string
	for _, names := range classes {
		if len(names) > 1 {
			shared = append(shared, strings.Join(names, "="))
		}
	}
	slices.Sort(shared)
	if len(classes) != 13 || fmt.Sprint(shared) != "[2C3S=3CCS 2SC3=3SCC C4=3CCC]" {
		t.Errorf("paper schemes by normal form = %v, want 13 classes sharing only C4=3CCC, 2SC3=3SCC and 2C3S=3CCS", classes)
	}
}

// TestSelectionInvariants: on every tree of 2-4 ports the selected ports
// are valid, and the merged occupancy is exactly the union of the
// selected candidates and still fits the machine.
func TestSelectionInvariants(t *testing.T) {
	exhaustively(t, func(*merge.Tree) selectionCheck {
		return func(m *isa.Machine, cands []isa.Occupancy, valid uint32, s merge.Selection) string {
			var union isa.Occupancy
			for p := range cands {
				if s.Has(p) {
					union = union.Union(cands[p])
				}
			}
			if s.Mask&^valid != 0 || union != s.Occ || !s.Occ.FitsAlone(m) {
				return fmt.Sprintf("selection %b is not valid ports whose fitting union is the merged %v", s.Mask, s.Occ)
			}
			return ""
		}
	})
}

// TestHighestPriorityAlwaysIssues: on every tree of 2-4 ports the first
// valid port in leaf order is always part of the selection.
func TestHighestPriorityAlwaysIssues(t *testing.T) {
	exhaustively(t, func(tree *merge.Tree) selectionCheck {
		order := mergetest.LeafOrder(tree.Root(), nil)
		return func(_ *isa.Machine, _ []isa.Occupancy, valid uint32, s merge.Selection) string {
			for _, p := range order {
				if valid&(1<<uint(p)) != 0 {
					if !s.Has(p) {
						return fmt.Sprintf("first valid leaf T%d not selected (mask %b)", p, s.Mask)
					}
					break
				}
			}
			return ""
		}
	})
}
