package vliwmt

import (
	"fmt"

	"vliwmt/internal/wgen"
)

// Synthetic workloads. The generator in internal/wgen emits IR kernels
// from a typed parameter profile; a generated benchmark is identified
// everywhere by its canonical "gen:" name, which encodes the profile
// and seed completely. CompileBenchmark, SweepJob.Benchmarks,
// Grid.Mixes ("genmix:" names), Runner and Client all accept generated
// names exactly like Table 1 names.

// GenClass is the generator's ILP class axis.
type GenClass = wgen.Class

// Generator ILP classes.
const (
	GenLowILP    = wgen.Low
	GenMediumILP = wgen.Medium
	GenHighILP   = wgen.High
)

// GenProfile is the typed parameter point a synthetic kernel is
// generated from: ILP class, kernel shape (blocks, ops per block),
// memory/multiply densities, branch density and taken bias, loop trip
// counts and compiler unroll factor. See the field documentation in
// internal/wgen for the legal ranges.
type GenProfile = wgen.Profile

// GenStreamOptions parameterizes a generated multi-tenant request
// stream (a load-model scenario).
type GenStreamOptions = wgen.StreamOptions

// GenRequest is one arrival in a generated request stream.
type GenRequest = wgen.Request

// GenerateKernel emits the synthetic kernel of the (profile, seed)
// point: deterministic, byte-identical for equal inputs. The kernel
// compiles with CompileKernel like any hand-built one.
func GenerateKernel(p GenProfile, seed uint64) (*Kernel, error) {
	return wgen.Generate(p, seed)
}

// GeneratedBenchmark validates the profile and returns the canonical
// benchmark name of the (profile, seed) point, e.g.
// "gen:H:b2:o32:m1500:u2000:x500:p2500:t64:r1:s42". The name is
// accepted wherever a Table 1 benchmark name is.
func GeneratedBenchmark(p GenProfile, seed uint64) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	return wgen.BenchmarkName(p, seed), nil
}

// ParseGeneratedBenchmark decodes a canonical generated benchmark name
// back to its profile and seed.
func ParseGeneratedBenchmark(name string) (GenProfile, uint64, error) {
	return wgen.Parse(name)
}

// RandomGenProfile draws a random profile of the given ILP class,
// deterministically from the seed — the sampler behind generated
// mixes and corpora.
func RandomGenProfile(c GenClass, seed uint64) GenProfile {
	return wgen.RandomProfile(wgen.NewRand(seed), c)
}

// GeneratedMix returns the canonical name of a generated 4-thread mix
// for a Table-2-style ILP-class combination ("LMHH") and seed, e.g.
// "genmix:LMHH:s7". The name is accepted wherever a Table 2 mix name
// is (RunMix, Grid.Mixes), and expands deterministically to four
// generated benchmarks.
func GeneratedMix(combo string, seed uint64) (string, error) {
	return wgen.MixName(combo, seed)
}

// GenerateStream emits a deterministic multi-tenant request stream:
// exponential interarrivals, each request a generated 4-thread mix
// drawn from a class-combination palette, with optional round-robin
// scheme assignment — the mediaserver deployment generalised into a
// load model.
func GenerateStream(opt GenStreamOptions, seed uint64) ([]GenRequest, error) {
	return wgen.GenerateStream(opt, seed)
}

// StreamJobs lowers a generated request stream to sweep jobs on the
// paper's default machine and budget (instrLimit 0 selects the sweep
// default of 300k instructions; the timeslice is 1% of the budget,
// floored at 1000 cycles). Each request becomes one job carrying the
// request's members, scheme and seed, so the whole scenario runs
// through SweepJobs, a Runner or a Client unchanged.
func StreamJobs(reqs []GenRequest, instrLimit int64) []SweepJob {
	if instrLimit <= 0 {
		instrLimit = 300_000
	}
	slice := instrLimit / 100
	if slice < 1000 {
		slice = 1000
	}
	jobs := make([]SweepJob, len(reqs))
	for i, r := range reqs {
		label := fmt.Sprintf("req%04d/%s", r.Index, r.Mix)
		if r.Scheme != "" {
			label += "/" + r.Scheme
		}
		jobs[i] = SweepJob{
			Label:           label,
			Scheme:          r.Scheme,
			Benchmarks:      append([]string(nil), r.Members[:]...),
			Machine:         DefaultMachine(),
			ICache:          DefaultCache(),
			DCache:          DefaultCache(),
			InstrLimit:      instrLimit,
			TimesliceCycles: slice,
			Seed:            r.Seed,
		}
	}
	return jobs
}
