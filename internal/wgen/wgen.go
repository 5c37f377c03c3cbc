// Package wgen is the synthetic workload generator: it emits dataflow
// IR kernels from a typed Profile spanning the TLP design-space axes
// the paper's hand-built Table 1 kernels sample only sparsely — ILP
// class (dependence width), memory-op density and locality, branch
// density and taken bias, loop trip counts and kernel length.
//
// Generation is fully deterministic: the same (Profile, seed) pair
// always produces byte-identical IR, on any machine, at any
// GOMAXPROCS. That determinism is what lets a generated benchmark be
// named by its parameters alone — the canonical "gen:" names built by
// BenchmarkName and parsed by Parse — so generated workloads flow
// through every existing layer (compile cache, sweep engine, result
// store keys, the wire format, the sweep server) as plain
// benchmark-name strings, and the receiving end regenerates exactly
// the kernel the sender meant. vliwvet's detpure analyzer polices the
// package: no wall clocks, no global RNG, no environment reads.
//
// Changing the generation algorithm changes what every "gen:" name
// means, which invalidates stored results and committed generated
// corpora exactly like a simulator behaviour change: bless a new
// golden baseline (make golden) in the same commit, and bump
// resultstore.SchemaVersion if stored entries could otherwise be
// served as wrong answers.
package wgen

import (
	"fmt"

	"vliwmt/internal/ir"
)

// Class is the generator's ILP classification, mirroring the paper's
// L/M/H split of Table 1: it selects how many independent dependence
// chains a block carries, and therefore how much instruction-level
// parallelism the compiler can schedule.
type Class uint8

const (
	// Low ILP: one or two long serial chains per block.
	Low Class = iota
	// Medium ILP: a few parallel chains of moderate length.
	Medium
	// High ILP: many short independent chains.
	High
)

func (c Class) String() string {
	switch c {
	case Low:
		return "L"
	case Medium:
		return "M"
	default:
		return "H"
	}
}

// ParseClass converts an L/M/H letter back to the class value.
func ParseClass(s string) (Class, error) {
	switch s {
	case "L":
		return Low, nil
	case "M":
		return Medium, nil
	case "H":
		return High, nil
	}
	return 0, fmt.Errorf("wgen: unknown ILP class %q (want L, M or H)", s)
}

// Profile is the typed parameter point a kernel is generated from.
// Validate spells out the legal ranges; Quantize reduces the density
// axes to the resolution the canonical name encodes (1/10000), which
// is also the resolution the generator actually uses — two profiles
// that quantize equal generate identical kernels.
type Profile struct {
	// Class is the ILP class: it drives the number of parallel
	// dependence chains per block.
	Class Class
	// Blocks is the number of basic blocks (1..64). More blocks mean a
	// larger code footprint and more branch sites.
	Blocks int
	// Ops is the number of IR operations per block (2..512) — the
	// kernel-length axis.
	Ops int
	// MemDensity is the fraction of operations that are memory
	// references [0..0.8]; about 30% of generated references are
	// stores.
	MemDensity float64
	// MulDensity is the fraction of compute operations that are
	// multiplies [0..0.8] (two-cycle latency, multiplier-slot bound).
	MulDensity float64
	// BranchDensity is the fraction of blocks terminated by a
	// probabilistic (Bernoulli) branch [0..1]; the remaining blocks end
	// in counted self-loops of TripCount iterations.
	BranchDensity float64
	// TakenBias is the taken probability of probabilistic branches
	// [0..1].
	TakenBias float64
	// TripCount is the trip count of counted loop back-edges (1..65536).
	TripCount int
	// Unroll is the compiler unroll factor applied when the generated
	// benchmark is compiled (0 or 1: none; at most 8).
	Unroll int
}

// bpScale is the density resolution: densities are quantized to basis
// points of 1/10000 so the canonical name encodes them losslessly.
const bpScale = 10000

// bp quantizes a density to basis points.
func bp(v float64) int { return int(v*bpScale + 0.5) }

// fromBP converts basis points back to a density.
func fromBP(n int) float64 { return float64(n) / bpScale }

// Validate rejects out-of-range profiles with a descriptive error.
func (p Profile) Validate() error {
	if p.Class > High {
		return fmt.Errorf("wgen: ILP class %d out of range (want Low, Medium or High)", p.Class)
	}
	if p.Blocks < 1 || p.Blocks > 64 {
		return fmt.Errorf("wgen: %d blocks outside [1, 64]", p.Blocks)
	}
	if p.Ops < 2 || p.Ops > 512 {
		return fmt.Errorf("wgen: %d ops per block outside [2, 512]", p.Ops)
	}
	if p.MemDensity < 0 || p.MemDensity > 0.8 {
		return fmt.Errorf("wgen: memory density %g outside [0, 0.8]", p.MemDensity)
	}
	if p.MulDensity < 0 || p.MulDensity > 0.8 {
		return fmt.Errorf("wgen: multiply density %g outside [0, 0.8]", p.MulDensity)
	}
	if p.BranchDensity < 0 || p.BranchDensity > 1 {
		return fmt.Errorf("wgen: branch density %g outside [0, 1]", p.BranchDensity)
	}
	if p.TakenBias < 0 || p.TakenBias > 1 {
		return fmt.Errorf("wgen: taken bias %g outside [0, 1]", p.TakenBias)
	}
	if p.TripCount < 1 {
		return fmt.Errorf("wgen: trip count %d must be at least 1", p.TripCount)
	}
	if p.TripCount > 65536 {
		return fmt.Errorf("wgen: trip count %d above 65536", p.TripCount)
	}
	if p.Unroll < 0 || p.Unroll > 8 {
		return fmt.Errorf("wgen: unroll factor %d outside [0, 8]", p.Unroll)
	}
	return nil
}

// Quantize returns the profile with its density axes reduced to the
// canonical 1/10000 resolution. Generate quantizes internally, so two
// profiles with the same quantization produce identical kernels.
func (p Profile) Quantize() Profile {
	p.MemDensity = fromBP(bp(p.MemDensity))
	p.MulDensity = fromBP(bp(p.MulDensity))
	p.BranchDensity = fromBP(bp(p.BranchDensity))
	p.TakenBias = fromBP(bp(p.TakenBias))
	return p
}

// Rand is a splitmix64 generator: the generator's only source of
// pseudo-randomness, seeded explicitly so generation is a pure
// function of its inputs.
type Rand struct{ s uint64 }

func (r *Rand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Uint64 returns the next raw draw — the exported face of the
// sequence, for callers deriving seeds from a Rand.
func (r *Rand) Uint64() uint64 { return r.next() }

func (r *Rand) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeInt draws uniformly from [lo, hi].
func (r *Rand) rangeInt(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// float returns a uniform draw in [0, 1).
func (r *Rand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// footprints is the memory-locality table streams draw from: the
// resident entries fit the paper's 64KB caches, the streaming entries
// do not — mixing the two is what gives generated kernels realistic
// IPCr-vs-IPCp gaps.
var footprints = []uint64{
	16 << 10, 32 << 10, 48 << 10, 64 << 10, // cache resident
	1 << 20, 4 << 20, 8 << 20, // streaming
}

// genStreams draws the kernel's address streams: 1-3 of them, kinds
// weighted toward strided access, footprints spanning resident and
// streaming working sets. Heavier memory density skews toward more
// streams so references spread over distinct localities.
func genStreams(b *ir.Builder, rng *Rand, p Profile) []int {
	n := 1 + rng.intn(3)
	if p.MemDensity > 0.3 && n < 2 {
		n = 2
	}
	ids := make([]int, n)
	for i := range ids {
		var s ir.MemStream
		switch k := rng.intn(100); {
		case k < 50:
			s.Kind = ir.StreamStride
			s.Stride = int64(2 << rng.intn(4)) // 2, 4, 8 or 16 bytes
		case k < 85:
			s.Kind = ir.StreamRandom
		default:
			s.Kind = ir.StreamChase
		}
		s.Base = uint64(i+1) << 28
		s.Footprint = footprints[rng.intn(len(footprints))]
		ids[i] = b.Stream(s)
	}
	return ids
}

// chainWidth draws the number of parallel dependence chains for one
// block — the ILP-class axis made concrete.
func chainWidth(rng *Rand, c Class) int {
	switch c {
	case Low:
		return rng.rangeInt(1, 2)
	case Medium:
		return rng.rangeInt(3, 4)
	default:
		return rng.rangeInt(6, 9)
	}
}

// Generate emits the IR kernel of the (profile, seed) point. The
// result is deterministic: equal quantized profiles and equal seeds
// yield byte-identical functions. The function is named with the
// canonical BenchmarkName, so a generated kernel is self-describing.
func Generate(p Profile, seed uint64) (*ir.Function, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.Quantize()
	// Mix the seed so seed 0 and small seeds still decorrelate, and
	// fold in the profile so nearby (profile, seed) points diverge.
	rng := Rand{s: seed ^ 0x6a09e667f3bcc909 ^ uint64(bp(p.MemDensity))<<32 ^ uint64(p.Ops)<<16 ^ uint64(p.Blocks)}
	b := ir.NewBuilder(BenchmarkName(p, seed))
	streams := genStreams(b, &rng, p)

	for blk := 0; blk < p.Blocks; blk++ {
		b.Block(fmt.Sprintf("b%d", blk))
		budget := p.Ops

		// Roots: one or two loads feeding every chain, so the block's
		// compute depends on memory exactly once at the top (plus the
		// density-driven references inside the chains).
		nRoots := 1
		if budget > 4 && rng.float() < 0.5 {
			nRoots = 2
		}
		roots := make([]ir.Value, nRoots)
		for i := range roots {
			roots[i] = b.Load(streams[rng.intn(len(streams))])
		}
		budget -= nRoots

		width := chainWidth(&rng, p.Class)
		// Every chain costs its head op, and joining w chains costs
		// ceil((w-1)/2) reduction ops; shrink the width until both fit.
		for width > 1 && width+(width-1+1)/2 > budget {
			width--
		}
		if width < 1 {
			width = 1
		}
		joins := 0
		if width > 1 {
			joins = (width - 1 + 1) / 2
		}

		tails := make([]ir.Value, width)
		for i := range tails {
			tails[i] = b.ALU(roots[rng.intn(len(roots))])
		}
		budget -= width + joins

		// Grow the chains round-robin, drawing each op's class from the
		// density axes: memory references (30% stores) against a random
		// stream, multiplies among the compute ops, ALU otherwise.
		for i := 0; budget > 0; i++ {
			c := i % width
			switch {
			case rng.float() < p.MemDensity:
				s := streams[rng.intn(len(streams))]
				if rng.float() < 0.3 {
					tails[c] = b.Store(s, tails[c])
				} else {
					tails[c] = b.Load(s, tails[c])
				}
			case rng.float() < p.MulDensity:
				tails[c] = b.Mul(tails[c])
			default:
				tails[c] = b.ALU(tails[c])
			}
			budget--
		}

		// Join the chain tails pairwise so the block is connected and
		// the chains' results are all live into the reduction.
		for i := 0; i+1 < len(tails); i += 2 {
			b.ALU(tails[i], tails[i+1])
		}

		if rng.float() < p.BranchDensity {
			target := fmt.Sprintf("b%d", rng.intn(p.Blocks))
			b.Branch(target, ir.Bernoulli(p.TakenBias), tails[0])
		} else {
			// Counted self-loop: the trip-count axis, and the shape the
			// compiler's unroller targets.
			b.Branch(fmt.Sprintf("b%d", blk), ir.Loop(p.TripCount), tails[0])
		}
	}
	return b.Finish()
}

// MustGenerate is Generate for profiles already validated (e.g. parsed
// from a canonical name); it panics on error.
func MustGenerate(p Profile, seed uint64) *ir.Function {
	f, err := Generate(p, seed)
	if err != nil {
		panic(err)
	}
	return f
}

// RandomProfile draws a profile within the plausible parameter ranges
// of the given ILP class — the sampler behind generated mixes and the
// generative conformance harness. Draw order is part
// of the determinism contract: the same rng state always yields the
// same profile.
func RandomProfile(rng *Rand, c Class) Profile {
	p := Profile{Class: c, Unroll: 1}
	switch c {
	case Low:
		p.Blocks = rng.rangeInt(4, 12)
		p.Ops = rng.rangeInt(6, 16)
		p.MemDensity = fromBP(rng.rangeInt(1500, 4500))
		p.MulDensity = fromBP(rng.rangeInt(0, 2000))
		p.BranchDensity = fromBP(rng.rangeInt(3000, 9000))
		p.TakenBias = fromBP(rng.rangeInt(2000, 6000))
		p.TripCount = rng.rangeInt(4, 64)
	case Medium:
		p.Blocks = rng.rangeInt(2, 6)
		p.Ops = rng.rangeInt(12, 28)
		p.MemDensity = fromBP(rng.rangeInt(1000, 3000))
		p.MulDensity = fromBP(rng.rangeInt(1000, 3000))
		p.BranchDensity = fromBP(rng.rangeInt(1000, 5000))
		p.TakenBias = fromBP(rng.rangeInt(2000, 5000))
		p.TripCount = rng.rangeInt(8, 96)
	default:
		p.Blocks = rng.rangeInt(1, 3)
		p.Ops = rng.rangeInt(24, 64)
		p.MemDensity = fromBP(rng.rangeInt(500, 2500))
		p.MulDensity = fromBP(rng.rangeInt(1000, 3500))
		p.BranchDensity = fromBP(rng.rangeInt(0, 3000))
		p.TakenBias = fromBP(rng.rangeInt(1000, 4000))
		p.TripCount = rng.rangeInt(16, 128)
		p.Unroll = rng.rangeInt(1, 2)
	}
	return p
}

// NewRand returns a seeded generator for the sampling entry points
// (RandomProfile); the zero seed is remapped so it still produces a
// usable sequence.
func NewRand(seed uint64) *Rand {
	return &Rand{s: seed ^ 0x9e3779b97f4a7c15}
}

// classes parses a 4-letter ILP-class combination ("LMHH") into class
// values, Table-2 style.
func classes(combo string) ([4]Class, error) {
	var out [4]Class
	if len(combo) != 4 {
		return out, fmt.Errorf("wgen: class combination %q must be 4 letters of L, M or H", combo)
	}
	for i := 0; i < 4; i++ {
		c, err := ParseClass(combo[i : i+1])
		if err != nil {
			return out, fmt.Errorf("wgen: class combination %q: %w", combo, err)
		}
		out[i] = c
	}
	return out, nil
}
