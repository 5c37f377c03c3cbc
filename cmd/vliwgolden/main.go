// Command vliwgolden maintains the committed golden conformance
// corpora: testdata/golden/corpus.json — deterministic simulation
// results covering the paper's sixteen merge schemes plus the IMT/BMT
// baselines, each under both memory models (real caches and perfect
// memory) — and testdata/golden/generated.json, the same contract over
// synthetic workloads from the internal/wgen generator (three
// generated mixes spanning the ILP-class space, a six-scheme subset,
// both memory models). The generated corpus pins the generator itself
// as well as the simulator: regenerating a "gen:" benchmark must
// reproduce the committed bits, so generator algorithm changes surface
// here exactly like simulator changes.
//
//	vliwgolden                     # regenerate both committed corpora
//	vliwgolden -check              # re-run both corpora and diff against them
//	vliwgolden -out other.json     # write the classic corpus elsewhere
//
// Regenerating writes deterministic bytes: the same simulator always
// produces the same file, so `git diff testdata/golden` after a code
// change answers "did this change simulator output?" metric by metric.
// The committed corpus is also replayed by the tier-1 test suite
// (TestGoldenCorpus) and diffable against any result store or live run
// with vliwdiff.
//
// Blessing a new baseline after an intentional behaviour change:
//
//	go run ./cmd/vliwgolden        # or: make golden
//	git diff testdata/golden       # review every metric that moved
//	git add testdata/golden && git commit
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"vliwmt"
)

// corpusJobs is the golden job set: every paper scheme plus the
// IMT/BMT baselines, crossed with both memory models, on the paper's
// default machine over one mixed workload. The budget is scaled down
// so the whole corpus replays in seconds while still exercising every
// merge control, the OS scheduler and both cache configurations.
func corpusJobs(instr int64, seed uint64) ([]vliwmt.SweepJob, error) {
	var members []string
	for _, m := range vliwmt.Mixes() {
		if m.Name == "LLHH" {
			members = m.Members[:]
		}
	}
	if members == nil {
		return nil, fmt.Errorf("mix LLHH not found")
	}
	schemes := append(vliwmt.Schemes(), "IMT", "BMT")
	var jobs []vliwmt.SweepJob
	for _, scheme := range schemes {
		for _, perfect := range []bool{false, true} {
			mem := "real"
			if perfect {
				mem = "perfect"
			}
			jobs = append(jobs, vliwmt.SweepJob{
				Label:           "LLHH/" + scheme + "/" + mem,
				Scheme:          scheme,
				Benchmarks:      append([]string(nil), members...),
				Machine:         vliwmt.DefaultMachine(),
				ICache:          vliwmt.DefaultCache(),
				DCache:          vliwmt.DefaultCache(),
				PerfectMemory:   perfect,
				InstrLimit:      instr,
				TimesliceCycles: 1_000,
				Seed:            seed,
			})
		}
	}
	return jobs, nil
}

// generatedCorpusJobs is the generated golden job set: three generated
// mixes spanning the ILP-class space (their canonical names pin the
// member profiles and seeds completely), a six-scheme subset covering
// cascade, balanced-tree, single-level-CSMT and baseline merge
// controls, both memory models. Small enough to replay in seconds,
// wide enough that a generator or simulator change cannot hide.
func generatedCorpusJobs(instr int64, seed uint64) ([]vliwmt.SweepJob, error) {
	mixes := []string{"genmix:LLHH:s1", "genmix:LMMH:s2", "genmix:HHHH:s3"}
	schemes := []string{"2SC3", "3SSS", "2SS", "C4", "IMT", "BMT"}
	var jobs []vliwmt.SweepJob
	for _, mixName := range mixes {
		mix, err := vliwmt.MixByName(mixName)
		if err != nil {
			return nil, err
		}
		for _, scheme := range schemes {
			for _, perfect := range []bool{false, true} {
				mem := "real"
				if perfect {
					mem = "perfect"
				}
				jobs = append(jobs, vliwmt.SweepJob{
					Label:           mixName + "/" + scheme + "/" + mem,
					Scheme:          scheme,
					Benchmarks:      append([]string(nil), mix.Members[:]...),
					Machine:         vliwmt.DefaultMachine(),
					ICache:          vliwmt.DefaultCache(),
					DCache:          vliwmt.DefaultCache(),
					PerfectMemory:   perfect,
					InstrLimit:      instr,
					TimesliceCycles: 1_000,
					Seed:            seed,
				})
			}
		}
	}
	return jobs, nil
}

// checkCorpus replays the committed snapshot at path and fails on any
// bit-level divergence.
func checkCorpus(path string, workers int) error {
	golden, err := vliwmt.LoadSnapshot(path)
	if err != nil {
		return err
	}
	// Replay exactly the committed jobs (not the generator's current
	// defaults), so -check stays meaningful even if the corpus was
	// built with non-default flags.
	results, err := vliwmt.SweepJobs(context.Background(), golden.Jobs(), &vliwmt.SweepOptions{Workers: workers})
	if err != nil {
		return err
	}
	live, err := vliwmt.SnapshotResults(results)
	if err != nil {
		return err
	}
	d := vliwmt.DiffSnapshots(golden, live)
	if !d.Clean() {
		d.WriteText(os.Stderr, path, "this build")
		return fmt.Errorf("simulator output diverges from the golden corpus %s (bless intentional changes with `make golden`)", path)
	}
	fmt.Printf("golden corpus %s: %d jobs bit-identical\n", path, d.Identical)
	return nil
}

// writeCorpus sweeps jobs and writes their snapshot to path.
func writeCorpus(path string, jobs []vliwmt.SweepJob, workers int) error {
	results, err := vliwmt.SweepJobs(context.Background(), jobs, &vliwmt.SweepOptions{Workers: workers})
	if err != nil {
		return err
	}
	snap, err := vliwmt.SnapshotResults(results)
	if err != nil {
		return err
	}
	if err := vliwmt.WriteSnapshot(path, snap); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d jobs\n", path, len(snap.Entries))
	return nil
}

func run() error {
	var (
		out       = flag.String("out", "testdata/golden/corpus.json", "corpus snapshot path")
		generated = flag.String("generated", "testdata/golden/generated.json", "generated-workload corpus snapshot path (empty: skip it)")
		instr     = flag.Int64("instr", 20_000, "per-thread instruction budget of the corpus jobs")
		seed      = flag.Uint64("seed", 1, "seed shared by every corpus job")
		workers   = flag.Int("workers", 0, "worker pool size (0: runtime.NumCPU())")
		check     = flag.Bool("check", false, "re-run the committed corpora and fail on any divergence instead of rewriting them")
	)
	flag.Parse()

	paths := []string{*out}
	if *generated != "" {
		paths = append(paths, *generated)
	}

	if *check {
		for _, p := range paths {
			if err := checkCorpus(p, *workers); err != nil {
				return err
			}
		}
		return nil
	}

	jobs, err := corpusJobs(*instr, *seed)
	if err != nil {
		return err
	}
	if err := writeCorpus(*out, jobs, *workers); err != nil {
		return err
	}
	if *generated != "" {
		gjobs, err := generatedCorpusJobs(*instr, *seed)
		if err != nil {
			return err
		}
		if err := writeCorpus(*generated, gjobs, *workers); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwgolden: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}
