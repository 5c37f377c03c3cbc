// Customscheme: design a merge-control tree that is not one of the
// paper's sixteen, write it as a canonical tree expression, and
// evaluate it against the paper's recommendation — the "handle any
// topology" workflow of the first-class Scheme API.
//
// The custom scheme "asym4" merges threads T0..T2 in one serial
// cluster-level (CSMT) node, then folds T3 in at operation level
// (SMT): cheap conflict-free merging for three threads plus one
// slot-filling SMT stage.
package main

import (
	"fmt"
	"log"

	"vliwmt"
)

// asym4 is the custom tree: S(...) is an SMT node, C(...) a serial
// CSMT node, Tk hardware thread port k.
const asym4 = "S(C(T0,T1,T2),T3)"

func main() {
	log.SetFlags(0)

	asym, err := vliwmt.ParseScheme(asym4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("asym4 = %s\n       (%s)\n\n", asym, asym.Describe())

	cfg := vliwmt.DefaultConfig()
	cfg.InstrLimit = 300_000
	cfg.TimesliceCycles = 10_000

	// The expression is accepted anywhere a scheme name is:
	// Config.Scheme, Grid.Schemes, Cost, the CLIs, and a remote
	// vliwserve.
	fmt.Printf("%-6s %-22s %8s %12s %11s\n", "scheme", "structure", "IPC", "transistors", "gate delays")
	for _, c := range []struct{ label, scheme string }{{"2SC3", "2SC3"}, {"3CCC", "3CCC"}, {"asym4", asym4}} {
		cfg.Scheme = c.scheme
		res, err := vliwmt.RunMix(cfg, "LLHH")
		if err != nil {
			log.Fatal(err)
		}
		cost, err := vliwmt.Cost(cfg.Machine, c.scheme)
		if err != nil {
			log.Fatal(err)
		}
		desc, _ := vliwmt.DescribeScheme(c.scheme)
		fmt.Printf("%-6s %-22s %8.3f %12d %11d\n", c.label, desc, res.IPC, cost.Transistors, cost.GateDelays)
	}

	// The typed field runs the identical scheme under its own label:
	// name-based and typed paths are bit-identical by construction.
	cfg.Scheme = ""
	cfg.Merge = asym.WithName("asym4")
	typed, err := vliwmt.RunMix(cfg, "LLHH")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntyped Config.Merge run (%s): IPC %.3f (identical to the expression run)\n", cfg.Merge.Name(), typed.IPC)
}
