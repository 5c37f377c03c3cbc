// Command vliwdiff makes simulator regressions diffable: it compares
// two snapshots of deterministic sweep results and prints per-metric
// deltas for every job whose output changed, exiting 1 on any
// divergence (and 0 when everything is bit-identical).
//
// A snapshot source is either a result-store directory (as written by
// `vliwsweep -store`, `vliwserve -results` or WithResultStore) or a
// snapshot JSON file (as written by WriteSnapshot, such as the golden
// corpora under testdata/golden):
//
//	vliwdiff old-store/ new-store/         # two stores, e.g. two worktrees
//	vliwdiff testdata/golden/corpus.json new-store/
//
// To compare a live run against a baseline, sweep into a store first:
//
//	vliwsweep -store /tmp/s -schemes 2SC3,3SSS -mixes LLHH && vliwdiff baseline/ /tmp/s
//
// Comparison is keyed by job content hash — the canonical hash of
// (scheme tree, machine, caches, memory model, budget, seed, schema
// version) — so only jobs with identical configurations are compared,
// and jobs present on one side only are reported rather than silently
// dropped.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vliwmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwdiff: ")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: vliwdiff OLD NEW\n\nOLD and NEW are result-store directories or snapshot JSON files.\n")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldName, newName := flag.Arg(0), flag.Arg(1)
	oldSnap, err := vliwmt.LoadSnapshot(oldName)
	if err != nil {
		log.Fatal(err)
	}
	newSnap, err := vliwmt.LoadSnapshot(newName)
	if err != nil {
		log.Fatal(err)
	}
	d := vliwmt.DiffSnapshots(oldSnap, newSnap)
	d.WriteText(os.Stdout, oldName, newName)
	if !d.Clean() {
		os.Exit(1)
	}
}
