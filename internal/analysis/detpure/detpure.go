// Package detpure forbids sources of nondeterminism in the repo's
// deterministic core: the packages whose outputs must be a pure
// function of their configured inputs (bit-identical reproduction at
// any worker count, warm-store replay, remote-vs-local equality all
// rest on it — see DESIGN.md).
//
// In a designated package, detpure reports references to:
//
//   - wall clocks: time.Now, time.Since, time.Until
//   - the global math/rand source: any package-level math/rand or
//     math/rand/v2 function except the constructors (rand.New,
//     rand.NewSource, ...). Seeded *rand.Rand values are fine; the
//     process-global source is not, and the simulator's own xorshift
//     is the preferred tool anyway.
//   - process environment: os.Getenv, os.LookupEnv, os.Environ
//   - goroutine-identity tricks: runtime.NumGoroutine, runtime.Stack
//
// Wall-clock reads that feed telemetry only (elapsed measurements,
// latency histograms) are legitimate; tag each such call site with a
// //vliwvet:allow detpure <reason> directive so the exemption is
// explicit, reviewed, and line-scoped.
package detpure

import (
	"go/ast"
	"go/types"
	"strings"

	"vliwmt/internal/analysis"
)

// DeterministicPackages designates the packages detpure (and detmap)
// police. Aggregation-side packages (sweep, resultstore) are included:
// their wall-clock telemetry sites carry explicit allow directives,
// which is the point — every nondeterministic read in the core is
// either absent or visibly justified.
var DeterministicPackages = map[string]bool{
	"vliwmt/internal/sim":         true,
	"vliwmt/internal/merge":       true,
	"vliwmt/internal/isa":         true,
	"vliwmt/internal/program":     true,
	"vliwmt/internal/cache":       true,
	"vliwmt/internal/refsim":      true,
	"vliwmt/internal/ir":          true,
	"vliwmt/internal/compiler":    true,
	"vliwmt/internal/workload":    true,
	"vliwmt/internal/wgen":        true,
	"vliwmt/internal/sweep":       true,
	"vliwmt/internal/resultstore": true,
}

// randConstructors are the math/rand functions that build seeded,
// caller-owned generators rather than touching the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// forbidden maps package path -> function name -> diagnostic phrase.
var forbidden = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock read",
		"Since": "wall-clock read",
		"Until": "wall-clock read",
	},
	"os": {
		"Getenv":    "environment read",
		"LookupEnv": "environment read",
		"Environ":   "environment read",
	},
	"runtime": {
		"NumGoroutine": "goroutine-identity dependence",
		"Stack":        "goroutine-identity dependence",
	},
}

// Analyzer is the detpure analysis.
var Analyzer = &analysis.Analyzer{
	Name: "detpure",
	Doc:  "forbid wall clocks, the global RNG, environment reads and goroutine tricks in deterministic packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !DeterministicPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if _, isPkg := pass.TypesInfo.Uses[x].(*types.PkgName); !isPkg {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			path, name := obj.Pkg().Path(), obj.Name()
			if strings.HasPrefix(path, "math/rand") && !randConstructors[name] {
				pass.Reportf(sel.Pos(),
					"global math/rand source (%s.%s) in deterministic package %s; use a seeded local generator",
					x.Name, name, pass.Pkg.Path())
				return true
			}
			if phrase, ok := forbidden[path][name]; ok {
				pass.Reportf(sel.Pos(),
					"%s (%s.%s) in deterministic package %s",
					phrase, path, name, pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
