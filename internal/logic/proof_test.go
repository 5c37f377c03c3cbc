package logic

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"testing"

	"vliwmt/internal/isa"
	"vliwmt/internal/merge/mergetest"
)

// parallelArity matches the arity a parallel CSMT node renders with.
var parallelArity = regexp.MustCompile(`C[0-9]+\(`)

// TestMergeTreesExhaustive pins the tree set of the merge evaluators'
// exhaustive proof: mergetest.Trees yields every labelled merge tree
// over 2-4 ports with each CSMT node in both implementations, all
// distinct. Each leg of the proof runs on every one of these trees, on
// the three mergetest machines, for every valid-port mask of sampled
// candidate sets:
//   - the gate-level circuit selects like Tree.Select:
//     TestCircuitMatchesBehaviouralMerge (default machine) and
//     TestCircuitEquivalenceOtherMachines (the other two);
//   - the packed evaluator does: merge.TestSelectPackedMatchesSelect;
//   - the tree selects like its normal form: merge.TestFunctionalEquivalences;
//   - the merge invariants hold: merge.TestSelectionInvariants and
//     merge.TestHighestPriorityAlwaysIssues.
func TestMergeTreesExhaustive(t *testing.T) {
	var counts []int
	for ports := 2; ports <= 4; ports++ {
		trees := mergetest.Trees(t, ports)
		exprs, serial := map[string]bool{}, map[string]bool{}
		for _, tree := range trees {
			exprs[tree.String()] = true
			serial[parallelArity.ReplaceAllString(tree.String(), "C(")] = true
		}
		if len(exprs) != len(trees) {
			t.Fatalf("%d ports: %d trees enumerated, %d distinct", ports, len(trees), len(exprs))
		}
		counts = append(counts, len(trees), len(serial))
	}
	// 4,524 trees in all; 1,552 when a CSMT node's two implementations
	// count once.
	if got := fmt.Sprint(counts); got != "[6 4 126 60 4392 1488]" {
		t.Fatalf("trees per port count (all, CSMT implementations counted once) = %s, want [6 4 126 60 4392 1488]", got)
	}
}

// circuitsMatch requires BuildScheme(m, tree).Evaluate to select the
// mask Tree.Select does, for every merge tree of 2-4 ports on each
// machine and every valid-port mask of sampled candidate sets. -short
// draws two candidate sets instead of eight and builds circuits only
// for the trees whose leaves are in port order: every shape and
// variant, the paper's sixteen among them.
func circuitsMatch(t *testing.T, machines []isa.Machine, seed int64) {
	samples := 8
	if testing.Short() {
		samples = 2
	}
	r := rand.New(rand.NewSource(seed))
	for ports := 2; ports <= 4; ports++ {
		cands := make([]isa.Occupancy, ports)
		for _, tree := range mergetest.Trees(t, ports) {
			if testing.Short() && !slices.IsSorted(mergetest.LeafOrder(tree.Root(), nil)) {
				continue
			}
			for mi := range machines {
				m := &machines[mi]
				circuit, err := BuildScheme(m, tree)
				if err != nil {
					t.Fatalf("BuildScheme(%s): %v", tree, err)
				}
				for s := 0; s < samples; s++ {
					for p := range cands {
						cands[p] = mergetest.RandomOcc(r, m)
					}
					for valid := uint32(0); valid < 1<<ports; valid++ {
						want := tree.Select(m, cands, valid).Mask
						if mask, err := circuit.Evaluate(cands, valid); err != nil || mask != want {
							t.Fatalf("%s on %+v, valid %0*b, candidates %q: circuit mask %0*b (err %v) != reference %0*b",
								tree, *m, ports, valid, cands, ports, mask, err, ports, want)
						}
					}
				}
			}
		}
	}
}

// TestCircuitMatchesBehaviouralMerge is the central equivalence
// property: on the default machine, the gate-level merge control of
// every tree of 2-4 ports selects exactly the thread set the
// behavioural model does.
func TestCircuitMatchesBehaviouralMerge(t *testing.T) {
	circuitsMatch(t, mergetest.Machines()[:1], 17)
}

// TestCircuitEquivalenceOtherMachines re-runs the central equivalence
// property on the paper's Figure 1 example machine (4 clusters x 2
// issue, 1 multiplier) and a 2-cluster, 8-issue configuration.
func TestCircuitEquivalenceOtherMachines(t *testing.T) {
	circuitsMatch(t, mergetest.Machines()[1:], 100)
}
