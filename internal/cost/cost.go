// Package cost derives the paper's hardware-cost figures from the
// gate-level netlists of internal/logic: Figure 5 (thread merge control
// cost versus thread count for CSMT serial, CSMT parallel and SMT) and
// Figure 9 (cost of every merging scheme on the 4-thread machine).
package cost

import (
	"fmt"

	"vliwmt/internal/isa"
	"vliwmt/internal/logic"
	"vliwmt/internal/merge"
)

// SchemeCost is the merge-control cost of one scheme.
type SchemeCost struct {
	Scheme      string
	Transistors int
	GateDelays  int
}

// ForScheme builds and costs the merge control of the named scheme on
// machine m. The name resolves like merge.Resolve, so canonical tree
// expressions work; the IMT/BMT baselines have no merge control and
// are an error.
func ForScheme(m isa.Machine, name string) (SchemeCost, error) {
	s, err := merge.Resolve(name)
	if err != nil {
		return SchemeCost{}, err
	}
	tree := s.Tree()
	if tree == nil {
		return SchemeCost{}, fmt.Errorf("cost: scheme %s has no merge control to cost", name)
	}
	return forTree(m, tree)
}

func forTree(m isa.Machine, tree *merge.Tree) (SchemeCost, error) {
	c, err := logic.BuildScheme(&m, tree)
	if err != nil {
		return SchemeCost{}, err
	}
	tr, d := c.Cost()
	return SchemeCost{Scheme: tree.Name(), Transistors: tr, GateDelays: d}, nil
}

// PaperSchemes costs the sixteen schemes of Figure 9 in the paper's order.
func PaperSchemes(m isa.Machine) ([]SchemeCost, error) {
	var out []SchemeCost
	for _, s := range merge.PaperSchemes4() {
		sc, err := ForScheme(m, s)
		if err != nil {
			return nil, fmt.Errorf("cost: scheme %s: %w", s, err)
		}
		out = append(out, sc)
	}
	return out, nil
}

// ControlPoint is one x-position of Figure 5: the three merge-control
// implementations at a given thread count.
type ControlPoint struct {
	Threads      int
	CSMTSerial   SchemeCost
	CSMTParallel SchemeCost
	SMT          SchemeCost
}

// ControlScaling computes Figure 5's curves for minThreads..maxThreads.
func ControlScaling(m isa.Machine, minThreads, maxThreads int) ([]ControlPoint, error) {
	if minThreads < 2 || maxThreads < minThreads {
		return nil, fmt.Errorf("cost: bad thread range [%d,%d]", minThreads, maxThreads)
	}
	var out []ControlPoint
	for n := minThreads; n <= maxThreads; n++ {
		kindsC := make([]merge.Kind, n-1)
		kindsS := make([]merge.Kind, n-1)
		for i := range kindsC {
			kindsC[i] = merge.CSMT
			kindsS[i] = merge.SMT
		}
		sl, err := merge.Cascade(fmt.Sprintf("CSMT-SL/%d", n), kindsC...)
		if err != nil {
			return nil, err
		}
		pl, err := merge.ParallelCSMT(fmt.Sprintf("CSMT-PL/%d", n), n)
		if err != nil {
			return nil, err
		}
		st, err := merge.Cascade(fmt.Sprintf("SMT/%d", n), kindsS...)
		if err != nil {
			return nil, err
		}
		p := ControlPoint{Threads: n}
		if p.CSMTSerial, err = forTree(m, sl); err != nil {
			return nil, err
		}
		if p.CSMTParallel, err = forTree(m, pl); err != nil {
			return nil, err
		}
		if p.SMT, err = forTree(m, st); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
