// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload against the simulator built from the same
// checkout, checks the outputs, and prints every metric by name with its
// unit; the last line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same work list runs again with spans recorded around every call into a
// layer, and the metrics are the per-layer ones. See README.md for the
// workloads, the metrics and the noise sources the design avoids.
//
// Usage (from the repository root; run.sh builds this command first):
//
//	bash perfbench/run.sh --workload cold-grid --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// state holds first-run records, traces and scratch stores.
	state string
	// rounds and instr, when nonzero, override the work-list size and
	// the per-thread instruction budget derived from seconds; the
	// self-test uses them to run each workload at a tiny size.
	rounds int
	instr  int64
	// injectFailure replaces one job of the first operation with a job
	// on an unknown scheme, so the self-test can check that a failing
	// job is counted rather than fatal.
	injectFailure bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: cold-grid, solo-stall or service-mixed")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.IntVar(&o.seconds, "seconds", 10, "intended length of the timed phase; fixes the size of the work list")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	fs.StringVar(&o.state, "state", filepath.Join(".bench_build", "perfbench"), "directory for first-run records, traces and scratch stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	o.trace = trace == 1
	rep, err := runBench(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one invocation; it marshals to the summary
// line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	// notes are human-readable lines printed above the summary: sample
	// counts, the tail percentile used, failures.
	notes []string
}

// set records a metric. A value that is not a finite number cannot be
// reported in JSON; it fails the run instead.
func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not a finite number", name)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// maxFailNotes caps the failure lines printed; the count is exact.
const maxFailNotes = 20

// fail records one failed check.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if r.Failed <= maxFailNotes {
		r.notef("FAIL: "+format, args...)
	}
}

func (r *report) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-14s %-34s %14.6g %s\n", r.workload, n, m.Value, m.Unit)
	}
	rate := 0.0
	if r.Attempted > 0 {
		rate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-14s %-34s %14.6g fraction (%d failed of %d attempted)\n", r.workload, "error_rate", rate, r.Failed, r.Attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-14s %s\n", r.workload, n)
	}
	b, _ := json.Marshal(r) // a map of plain floats always marshals
	fmt.Fprintln(w, string(b))
}
