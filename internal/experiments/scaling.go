package experiments

import (
	"fmt"

	"vliwmt/internal/cost"
	"vliwmt/internal/merge"
	"vliwmt/internal/sweep"
)

// ScalingRow is one 8-thread design point: performance on an
// eight-benchmark workload plus merge-control hardware cost.
type ScalingRow struct {
	Scheme      string
	Structure   string
	IPC         float64
	Transistors int
	GateDelays  int
}

// Scaling8Schemes lists the 8-thread merge controls evaluated by the
// extension experiment, from all-CSMT to all-SMT:
//
//	C8        single-level parallel CSMT
//	7CCCCCCC  serial CSMT cascade
//	2SC7      one SMT pair, rest folded in by parallel CSMT
//	4SC3C3C3  one SMT pair, three parallel-CSMT levels
//	7SSSSSSS  full 8-thread SMT (the upper bound the paper deems
//	          unimplementable in hardware)
func Scaling8Schemes() []string {
	return []string{"C8", "7CCCCCCC", "2SC7", "4SC3C3C3", "7SSSSSSS"}
}

// scaling8Workload is the eight-thread job mix: the paper's class balance
// (half low-ILP, a quarter medium, a quarter high) extended to eight
// threads.
var scaling8Workload = []string{
	"mcf", "bzip2", "blowfish", "gsmencode",
	"g721encode", "djpeg", "x264", "colorspace",
}

// Scaling8 runs the extension experiment the paper's motivation points
// to: beyond four threads, SMT merging is unbuildable but mixed schemes
// keep most of its performance at CSMT-like cost. Returns one row per
// scheme in Scaling8Schemes order.
func Scaling8(opts Options) ([]ScalingRow, error) {
	schemes := Scaling8Schemes()
	var jobs []sweep.Job
	for _, scheme := range schemes {
		jobs = append(jobs, opts.job("8T/"+scheme, scheme, 8, false, scaling8Workload...))
	}
	ipcs, err := opts.run(jobs)
	if err != nil {
		return nil, err
	}
	var rows []ScalingRow
	for i, scheme := range schemes {
		sch, err := merge.Resolve(scheme)
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling scheme %s: %w", scheme, err)
		}
		sc, err := cost.ForScheme(opts.Machine, scheme)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScalingRow{
			Scheme:      scheme,
			Structure:   sch.String(),
			IPC:         ipcs[i],
			Transistors: sc.Transistors,
			GateDelays:  sc.GateDelays,
		})
	}
	return rows, nil
}
