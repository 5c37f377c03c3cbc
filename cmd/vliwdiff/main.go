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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"vliwmt"
)

// run's errors for a command line without two snapshots (exit status
// 2, after this usage text) and for snapshots that differ (exit status
// 1, after the report).
var (
	errUsage    = errors.New("usage: vliwdiff OLD NEW\n\nOLD and NEW are result-store directories or snapshot JSON files.")
	errDiverged = errors.New("snapshots diverge")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwdiff: ")
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case errors.Is(err, errDiverged):
		os.Exit(1)
	default:
		log.Fatal(err)
	}
}

// run compares the two snapshots args name and writes the per-job
// report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vliwdiff", flag.ExitOnError)
	fs.Usage = func() { fmt.Fprintln(fs.Output(), errUsage) }
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag
	if fs.NArg() != 2 {
		return errUsage
	}
	oldName, newName := fs.Arg(0), fs.Arg(1)
	oldSnap, err := vliwmt.LoadSnapshot(oldName)
	if err != nil {
		return err
	}
	newSnap, err := vliwmt.LoadSnapshot(newName)
	if err != nil {
		return err
	}
	d := vliwmt.DiffSnapshots(oldSnap, newSnap)
	d.WriteText(w, oldName, newName)
	if !d.Clean() {
		return errDiverged
	}
	return nil
}
