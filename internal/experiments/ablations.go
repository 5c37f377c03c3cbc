package experiments

import (
	"fmt"

	"vliwmt/internal/compiler"
	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
	"vliwmt/internal/workload"
)

// AblationRow is one design choice of this repository measured on every
// input: the IPC gain of the choice over its alternative. The rows are
// the repository's own claims, not the paper's.
type AblationRow struct {
	// Name states the comparison, choice first: "2SC3 vs IMT".
	Name string
	// Inputs are the Table 2 mixes, or the Table 1 kernels for the
	// unroll row.
	Inputs []string
	// GainPc[i] is the choice's gain on Inputs[i] in percent.
	GainPc []float64
}

// Average returns the row's mean gain over its inputs, in percent.
func (r AblationRow) Average() float64 {
	s := 0.0
	for _, g := range r.GainPc {
		s += g
	}
	return s / float64(len(r.GainPc))
}

// Ablations measures the design choices DESIGN.md calls out, each on
// every input instead of one:
//   - round-robin priority rotation against fixed priority, under 3CCC
//     on every mix;
//   - merged issue (2SC3) against the classic interleaved (IMT) and
//     blocked (BMT) multithreading baselines on every mix;
//   - compiler unroll factor 4 against 1, on every Table 1 kernel alone
//     under perfect memory (the taken-branch penalty amortisation).
func Ablations(opts Options) ([]AblationRow, error) {
	mixes := workload.Mixes()
	schemes := []string{"3CCC", "2SC3", "IMT", "BMT"}
	var jobs []sweep.Job
	for _, mix := range mixes {
		for _, s := range schemes {
			jobs = append(jobs, opts.mixJob(mix, 4, s))
		}
	}
	ipcs, err := opts.run(jobs)
	if err != nil {
		return nil, err
	}
	rotation := AblationRow{Name: "3CCC rotating vs fixed priority"}
	vsIMT := AblationRow{Name: "2SC3 vs IMT"}
	vsBMT := AblationRow{Name: "2SC3 vs BMT"}
	// The engine runs every job with rotation on; the fixed-priority
	// twin of each 3CCC job is a direct run of the same config.
	fixed := sim.Config{
		Machine: opts.Machine, ICache: opts.ICache, DCache: opts.DCache,
		Contexts: 4, Scheme: "3CCC", FixedPriority: true,
		TimesliceCycles: opts.Timeslice, InstrLimit: opts.InstrLimit, Seed: opts.Seed,
	}
	for i, mix := range mixes {
		var tasks []sim.Task
		for _, name := range mix.Members {
			p, err := sweep.SharedCache().Get(name, opts.Machine)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			tasks = append(tasks, sim.Task{Name: name, Prog: p})
		}
		fixedIPC, err := runIPC(fixed, tasks)
		if err != nil {
			return nil, err
		}
		c, sc3, imt, bmt := ipcs[4*i], ipcs[4*i+1], ipcs[4*i+2], ipcs[4*i+3]
		rotation.add(mix.Name, c, fixedIPC)
		vsIMT.add(mix.Name, sc3, imt)
		vsBMT.add(mix.Name, sc3, bmt)
	}

	unroll := AblationRow{Name: "unroll 4 vs 1 (IPCp)"}
	single := sim.Config{
		Machine: opts.Machine, Contexts: 1, PerfectMemory: true,
		TimesliceCycles: opts.Timeslice, InstrLimit: opts.InstrLimit, Seed: opts.Seed,
	}
	for _, b := range workload.Benchmarks() {
		var ipc [2]float64
		for k, u := range []int{1, 4} {
			p, err := compiler.Compile(b.Build(), compiler.Options{Machine: opts.Machine, Unroll: u})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", b.Name, err)
			}
			if ipc[k], err = runIPC(single, []sim.Task{{Name: b.Name, Prog: p}}); err != nil {
				return nil, err
			}
		}
		unroll.add(b.Name, ipc[1], ipc[0])
	}
	return []AblationRow{rotation, vsIMT, vsBMT, unroll}, nil
}

// add appends input's gain of choice over alt.
func (r *AblationRow) add(input string, choice, alt float64) {
	r.Inputs = append(r.Inputs, input)
	r.GainPc = append(r.GainPc, 100*(choice-alt)/alt)
}

// runIPC runs one configuration outside the sweep engine (for knobs a
// sweep job does not carry) and returns its IPC.
func runIPC(cfg sim.Config, tasks []sim.Task) (float64, error) {
	res, err := sim.Run(cfg, tasks)
	if err != nil {
		return 0, fmt.Errorf("experiments: %w", err)
	}
	if res.TimedOut {
		return 0, fmt.Errorf("experiments: %s timed out after %d cycles", tasks[0].Name, res.Cycles)
	}
	return res.IPC, nil
}
