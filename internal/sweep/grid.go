package sweep

import (
	"fmt"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/sim"
	"vliwmt/internal/workload"
)

// DefaultSchemes returns the paper's sixteen Figure 9 schemes.
func DefaultSchemes() []string { return merge.PaperSchemes4() }

// Grid declares a factor cross-product of merge schemes and workload
// mixes. Jobs expands it mix-major (all schemes of the first mix, then
// the second), matching the paper's Figure 10 layout.
//
// Zero-valued fields assume the paper's defaults: Default machine and
// caches, a 300k-instruction budget with a 1%-of-budget timeslice, and
// seed 1. The json tags are the grid's wire form, so a sparse document
// such as {} expands with exactly this defaulting.
type Grid struct {
	// Schemes are merge-control names — paper names, baselines or
	// canonical tree expressions; empty selects the paper's sixteen
	// Figure 9 schemes.
	Schemes []string `json:"schemes,omitempty"`
	// Mixes are Table 2 mix names; empty selects all nine.
	Mixes []string `json:"mixes,omitempty"`
	// Machine, ICache, DCache configure the processor (zero: defaults).
	Machine isa.Machine  `json:"machine,omitempty"`
	ICache  cache.Config `json:"icache,omitempty"`
	DCache  cache.Config `json:"dcache,omitempty"`
	// InstrLimit is the per-thread budget (zero: 300k, the scaled-down
	// default that converges on the synthetic kernels).
	InstrLimit int64 `json:"instr_limit,omitempty"`
	// TimesliceCycles is the OS quantum (zero: sim.ScaledTimeslice of
	// the budget, the paper's proportion).
	TimesliceCycles int64 `json:"timeslice_cycles,omitempty"`
	// Seed seeds the sweep. Each job derives its own seed from it and
	// the job index (splitmix64), so results are deterministic at any
	// worker count yet jobs are decorrelated.
	Seed uint64 `json:"seed,omitempty"`
	// SharedSeed gives every job the sweep seed verbatim instead of a
	// derived one. Set it for any scheme comparison: with derived seeds
	// each job draws its own OS scheduling sequence, so even schemes
	// that merge identically report different IPCs. On the default
	// grid at 300k instructions and seed 1, C4 reads 4.578 against
	// 3CCC's 4.400 on LLHH (+4.0 %), 2SC3 4.204 against 3SCC's 3.991 on
	// LMMH (+5.3 %), and 3SCS and 3SSC swap places in the average
	// ranking; with SharedSeed every such twin is identical.
	SharedSeed bool `json:"shared_seed,omitempty"`
}

// deriveSeed spreads the sweep seed over job indices (splitmix64).
func deriveSeed(base uint64, idx int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(idx+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// MaxGridJobs bounds the cross-product a Grid may expand to: 455 times
// the paper's 144-job Figure 10 grid. A grid document is tiny next to
// its expansion (1,000 schemes by 1,000 mixes is 14 KB of JSON and a
// million jobs), so the axis product is checked before anything is
// allocated.
const MaxGridJobs = 1 << 16

// Jobs expands the grid into a job set, validating scheme and mix names
// and rejecting grids whose axis product exceeds MaxGridJobs.
func (g Grid) Jobs() ([]Job, error) {
	schemes := g.Schemes
	if len(schemes) == 0 {
		schemes = DefaultSchemes()
	}
	mixNames := g.Mixes
	if len(mixNames) == 0 {
		for _, m := range workload.Mixes() {
			mixNames = append(mixNames, m.Name)
		}
	}
	n := len(schemes) * len(mixNames)
	if n > MaxGridJobs {
		return nil, fmt.Errorf("sweep: grid: %d schemes x %d mixes = %d jobs exceeds the limit of %d",
			len(schemes), len(mixNames), n, MaxGridJobs)
	}
	for _, s := range schemes {
		if _, err := merge.Resolve(s); err != nil {
			return nil, fmt.Errorf("sweep: grid: scheme %s: %w", s, err)
		}
	}
	machine := g.Machine
	if machine.Clusters == 0 {
		machine = isa.Default()
	}
	icache, dcache := g.ICache, g.DCache
	if icache == (cache.Config{}) {
		icache = cache.DefaultConfig()
	}
	if dcache == (cache.Config{}) {
		dcache = cache.DefaultConfig()
	}
	instr := g.InstrLimit
	if instr <= 0 {
		instr = 300_000
	}
	slice := g.TimesliceCycles
	if slice <= 0 {
		slice = sim.ScaledTimeslice(instr)
	}
	base := g.Seed
	if base == 0 {
		base = 1
	}

	jobs := make([]Job, 0, n)
	for _, mixName := range mixNames {
		mix, err := workload.MixByName(mixName)
		if err != nil {
			return nil, fmt.Errorf("sweep: grid: %w", err)
		}
		for _, scheme := range schemes {
			seed := base
			if !g.SharedSeed {
				seed = deriveSeed(base, len(jobs))
			}
			jobs = append(jobs, Job{
				Label:           mix.Name + "/" + scheme,
				Scheme:          scheme,
				Benchmarks:      append([]string(nil), mix.Members[:]...),
				Machine:         machine,
				ICache:          icache,
				DCache:          dcache,
				InstrLimit:      instr,
				TimesliceCycles: slice,
				Seed:            seed,
			})
		}
	}
	return jobs, nil
}
