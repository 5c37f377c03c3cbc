// Package experiments reproduces each table and figure of the paper's
// evaluation, plus this repository's own ablations (Ablations): one driver
// per experiment, shared by cmd/paperfigs (full-size runs, the one place
// the results print) and the test suite (scaled-down runs, the one place
// they are asserted).
//
// Every simulation-based driver expands its measurements into a job set
// and executes it on the internal/sweep worker pool, so independent runs
// use all available cores while results stay bit-identical to a serial
// sweep: jobs are seeded identically and aggregated by job index, not by
// completion order.
package experiments

import (
	"context"
	"fmt"

	"vliwmt/internal/cache"
	"vliwmt/internal/cost"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/sweep"
	"vliwmt/internal/workload"
)

// Options scales and seeds the simulation-based experiments.
type Options struct {
	Machine isa.Machine
	ICache  cache.Config
	DCache  cache.Config
	// InstrLimit is the per-thread instruction budget (the paper runs
	// 100M; scaled-down runs converge long before that because the
	// kernels are loops).
	InstrLimit int64
	// Timeslice is the OS scheduling quantum in cycles.
	Timeslice int64
	Seed      uint64
	// Workers bounds the sweep-engine worker pool; 0 selects
	// runtime.NumCPU(). Results are identical at any worker count.
	Workers int
	// Progress, when set, observes every completed simulation job.
	Progress sweep.ProgressFunc
}

// DefaultOptions returns the paper's machine with a 300k-instruction
// budget (adequate for stable IPC on the synthetic kernels). The OS
// quantum keeps the paper's proportions: the paper slices 1M cycles
// against a 100M-instruction budget, so scaled-down runs slice
// InstrLimit/100 cycles (Fig4's single-context configuration must rotate
// through all four threads many times per run, exactly as the paper's
// multitasking setup does).
func DefaultOptions() Options {
	o := Options{
		Machine:    isa.Default(),
		ICache:     cache.DefaultConfig(),
		DCache:     cache.DefaultConfig(),
		InstrLimit: 300_000,
		Seed:       1,
	}
	o.Timeslice = o.InstrLimit / 100
	return o
}

// Scale adjusts the instruction budget, keeping the timeslice proportional
// (1% of the budget, as in the paper).
func (o Options) Scale(instrLimit int64) Options {
	o.InstrLimit = instrLimit
	o.Timeslice = instrLimit / 100
	if o.Timeslice < 1000 {
		o.Timeslice = 1000
	}
	return o
}

// engine builds a sweep engine for one driver call. All drivers share
// the process-wide compile cache, so a paperfigs -all run compiles each
// kernel once, not once per figure.
func (o Options) engine() *sweep.Engine {
	e := sweep.New(o.Workers)
	e.SetCache(sweep.SharedCache())
	e.SetProgress(o.Progress)
	return e
}

// job expresses one measurement as a sweep job. Every job of a driver
// shares the options seed — exactly the serial drivers' behaviour, and
// required for the paper's scheme identities (C4 vs 3CCC) to hold.
func (o Options) job(label, scheme string, contexts int, perfect bool, benches ...string) sweep.Job {
	return sweep.Job{
		Label:           label,
		Scheme:          scheme,
		Contexts:        contexts,
		Benchmarks:      benches,
		Machine:         o.Machine,
		ICache:          o.ICache,
		DCache:          o.DCache,
		PerfectMemory:   perfect,
		InstrLimit:      o.InstrLimit,
		TimesliceCycles: o.Timeslice,
		Seed:            o.Seed,
	}
}

// run executes the job set and returns per-job IPCs in submission order,
// converting timeouts and job failures into errors.
func (o Options) run(jobs []sweep.Job) ([]float64, error) {
	results, err := o.engine().Run(context.Background(), jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	ipcs := make([]float64, len(results))
	for i, r := range results {
		ipc, err := r.IPC()
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		ipcs[i] = ipc
	}
	return ipcs, nil
}

// Table1Row is one benchmark's measured single-thread behaviour next to
// the paper's published values.
type Table1Row struct {
	Name        string
	Class       workload.ILPClass
	Description string
	IPCr, IPCp  float64
	PaperIPCr   float64
	PaperIPCp   float64
}

// Table1 measures IPCr (real caches) and IPCp (perfect memory) for every
// benchmark on a single-thread processor.
func Table1(opts Options) ([]Table1Row, error) {
	benches := workload.Benchmarks()
	var jobs []sweep.Job
	for _, b := range benches {
		jobs = append(jobs,
			opts.job(b.Name+"/real", "", 1, false, b.Name),
			opts.job(b.Name+"/perfect", "", 1, true, b.Name))
	}
	ipcs, err := opts.run(jobs)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for i, b := range benches {
		rows = append(rows, Table1Row{
			Name: b.Name, Class: b.Class, Description: b.Description,
			IPCr: ipcs[2*i], IPCp: ipcs[2*i+1],
			PaperIPCr: b.PaperIPCr, PaperIPCp: b.PaperIPCp,
		})
	}
	return rows, nil
}

// mixJob expresses "run this Table 2 mix under this scheme and context
// count" as a sweep job.
func (o Options) mixJob(mix workload.Mix, contexts int, scheme string) sweep.Job {
	label := mix.Name + "/" + scheme
	if scheme == "" {
		label = mix.Name + "/ST"
	}
	return o.job(label, scheme, contexts, false, mix.Members[:]...)
}

// Figure4 holds the average SMT IPC at one, two and four hardware threads
// over the nine workloads.
type Figure4 struct {
	SingleThread float64
	TwoThread    float64
	FourThread   float64
}

// Fig4 computes Figure 4.
func Fig4(opts Options) (Figure4, error) {
	mixes := workload.Mixes()
	var jobs []sweep.Job
	for _, mix := range mixes {
		jobs = append(jobs,
			opts.mixJob(mix, 1, ""),
			opts.mixJob(mix, 2, "1S"),
			opts.mixJob(mix, 4, "3SSS"))
	}
	ipcs, err := opts.run(jobs)
	if err != nil {
		return Figure4{}, err
	}
	var f Figure4
	for i := range mixes {
		f.SingleThread += ipcs[3*i]
		f.TwoThread += ipcs[3*i+1]
		f.FourThread += ipcs[3*i+2]
	}
	n := float64(len(mixes))
	f.SingleThread /= n
	f.TwoThread /= n
	f.FourThread /= n
	return f, nil
}

// Fig5 computes Figure 5 (merge control cost versus thread count).
func Fig5(m isa.Machine) ([]cost.ControlPoint, error) {
	return cost.ControlScaling(m, 2, 8)
}

// Figure6Row is one workload's SMT-over-CSMT performance advantage.
type Figure6Row struct {
	Mix         string
	SMT, CSMT   float64
	AdvantagePc float64
}

// Fig6 computes Figure 6: the 4-thread SMT (3SSS) advantage over 4-thread
// CSMT (3CCC) per workload, plus the average as the final row.
func Fig6(opts Options) ([]Figure6Row, error) {
	mixes := workload.Mixes()
	var jobs []sweep.Job
	for _, mix := range mixes {
		jobs = append(jobs,
			opts.mixJob(mix, 4, "3SSS"),
			opts.mixJob(mix, 4, "3CCC"))
	}
	ipcs, err := opts.run(jobs)
	if err != nil {
		return nil, err
	}
	var rows []Figure6Row
	var sum float64
	for i, mix := range mixes {
		smt, csmt := ipcs[2*i], ipcs[2*i+1]
		adv := 100 * (smt - csmt) / csmt
		rows = append(rows, Figure6Row{Mix: mix.Name, SMT: smt, CSMT: csmt, AdvantagePc: adv})
		sum += adv
	}
	rows = append(rows, Figure6Row{Mix: "Average", AdvantagePc: sum / float64(len(mixes))})
	return rows, nil
}

// Fig9 computes Figure 9 (cost of the sixteen schemes).
func Fig9(m isa.Machine) ([]cost.SchemeCost, error) {
	return cost.PaperSchemes(m)
}

// Figure10Row is one workload's IPC under every scheme.
type Figure10Row struct {
	Mix string
	// IPC maps scheme name (plus "1S") to achieved IPC.
	IPC map[string]float64
}

// Fig10Schemes lists the schemes simulated for Figure 10 in display order.
func Fig10Schemes() []string {
	return []string{
		"1S", "3CCC", "C4", "2CC", "2CS",
		"2SC3", "2C3S", "3CCS", "3CSC", "3SCC",
		"3CSS", "3SSC", "3SCS", "2SC", "2SS", "3SSS",
	}
}

// Fig10 simulates every scheme on every workload — the repository's
// largest sweep (16 schemes x 9 mixes). The final row holds the
// per-scheme averages ("Average").
func Fig10(opts Options) ([]Figure10Row, error) {
	mixes := workload.Mixes()
	schemes := Fig10Schemes()
	var jobs []sweep.Job
	for _, mix := range mixes {
		for _, scheme := range schemes {
			ports, err := merge.Ports(scheme)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, opts.mixJob(mix, ports, scheme))
		}
	}
	ipcs, err := opts.run(jobs)
	if err != nil {
		return nil, err
	}
	avg := Figure10Row{Mix: "Average", IPC: map[string]float64{}}
	var rows []Figure10Row
	for i, mix := range mixes {
		row := Figure10Row{Mix: mix.Name, IPC: map[string]float64{}}
		for j, scheme := range schemes {
			ipc := ipcs[i*len(schemes)+j]
			row.IPC[scheme] = ipc
			avg.IPC[scheme] += ipc
		}
		rows = append(rows, row)
	}
	for s := range avg.IPC {
		avg.IPC[s] /= float64(len(mixes))
	}
	return append(rows, avg), nil
}

// TradeoffPoint is one scheme in the Figures 11/12 scatter: average IPC
// against hardware cost.
type TradeoffPoint struct {
	Scheme      string
	IPC         float64
	Transistors int
	GateDelays  int
}

// Tradeoffs combines Figure 9 costs with Figure 10 average performance,
// yielding the data of Figures 11 (IPC vs transistors) and 12 (IPC vs gate
// delays). Accepts precomputed Fig10 rows to avoid re-simulation.
func Tradeoffs(m isa.Machine, fig10 []Figure10Row) ([]TradeoffPoint, error) {
	if len(fig10) == 0 {
		return nil, fmt.Errorf("experiments: tradeoffs need Fig10 results")
	}
	avg := fig10[len(fig10)-1]
	if avg.Mix != "Average" {
		return nil, fmt.Errorf("experiments: last Fig10 row is %q, want Average", avg.Mix)
	}
	var pts []TradeoffPoint
	for _, s := range Fig10Schemes() {
		sc, err := cost.ForScheme(m, s)
		if err != nil {
			return nil, err
		}
		pts = append(pts, TradeoffPoint{Scheme: s, IPC: avg.IPC[s], Transistors: sc.Transistors, GateDelays: sc.GateDelays})
	}
	return pts, nil
}
