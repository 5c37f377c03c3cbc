package workload

import (
	"fmt"

	"vliwmt/internal/ir"
	"vliwmt/internal/wgen"
)

// Generated benchmarks. A "gen:" name is a complete, canonical
// description of a synthetic kernel (see internal/wgen): ByName parses
// it and returns a Benchmark whose Build regenerates the kernel
// deterministically. Because the name alone reproduces the IR, a
// generated benchmark travels through the compile cache, the result
// store, the wire format and the sweep server exactly like a Table 1
// name — no layer needs to know kernels can be synthetic.
// "genmix:" names expand to 4-thread mixes of generated benchmarks the
// same way.

// classFromGen maps the generator's ILP class onto the paper's.
func classFromGen(c wgen.Class) ILPClass {
	switch c {
	case wgen.Low:
		return Low
	case wgen.Medium:
		return Medium
	default:
		return High
	}
}

// generatedByName resolves a canonical "gen:" benchmark name.
func generatedByName(name string) (Benchmark, error) {
	p, seed, err := wgen.Parse(name)
	if err != nil {
		return Benchmark{}, fmt.Errorf("workload: %w", err)
	}
	return Benchmark{
		Name:        name,
		Description: fmt.Sprintf("Generated %s-ILP kernel", p.Class),
		Class:       classFromGen(p.Class),
		Unroll:      p.Unroll,
		Build:       func() *ir.Function { return wgen.MustGenerate(p, seed) },
	}, nil
}

// generatedMixByName resolves a canonical "genmix:" mix name.
func generatedMixByName(name string) (Mix, error) {
	combo, seed, err := wgen.ParseMixName(name)
	if err != nil {
		return Mix{}, fmt.Errorf("workload: %w", err)
	}
	members, err := wgen.MixMembers(combo, seed)
	if err != nil {
		return Mix{}, fmt.Errorf("workload: %w", err)
	}
	return Mix{Name: name, Members: members}, nil
}
