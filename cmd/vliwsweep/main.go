// Command vliwsweep runs arbitrary merge-scheme x workload-mix grids on
// the parallel sweep engine and emits the results as a text table, JSON
// or CSV.
//
// Usage:
//
//	vliwsweep                                  # all 16 schemes x 9 mixes
//	vliwsweep -schemes 2SC3,3SSS -mixes LLHH   # a sub-grid
//	vliwsweep -schemes '2SC3,S(C(T0,T1,T2),T3)' -mixes LLHH  # custom tree
//	vliwsweep -workers 8 -instr 1000000 -seed 3 -format json
//	vliwsweep -sharedseed -progress
//	vliwsweep -store results/ -mixes LLHH      # persistent result store
//	vliwsweep -addr localhost:8080 -mixes LLHH # same grid, remote vliwserve
//	vliwsweep -stats -mixes LLHH               # lifecycle summary on stderr
//	vliwsweep -log-level debug -log-json       # structured sweep tracing
//
// Every job derives its seed from -seed and its index, so output is
// bit-identical at any -workers count; -sharedseed gives every job the
// same seed instead. Compare schemes with -sharedseed: under derived
// seeds each job sees its own OS scheduling sequence, and on the
// default grid (300k instructions, seed 1) C4 then beats 3CCC by 4.0 %
// on LLHH and 2SC3 beats 3SCC by 5.3 % on LMMH, though each pair
// merges identically; with -sharedseed both pairs are identical.
//
// With -addr the grid is submitted to a running vliwserve instance
// instead of the in-process engine; the determinism contract crosses
// the wire, so the output is identical modulo the wall-clock fields
// (elapsed_sec / time).
//
// With -store, completed jobs persist in a content-addressed store at
// the given directory and later sweeps serve identical jobs from disk
// instead of re-simulating them — a repeated sweep against a warm
// store performs zero simulations and emits byte-identical output
// (cached results replay the original elapsed times). The store is
// diffable against another store or a committed baseline with
// vliwdiff.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"vliwmt"
	"vliwmt/internal/api"
	"vliwmt/internal/merge"
	"vliwmt/internal/profiling"
	"vliwmt/internal/report"
	"vliwmt/internal/sweep"
	"vliwmt/internal/telemetry"
)

// row is one job's flattened result, shared by the JSON, CSV and text
// emitters.
type row struct {
	Mix        string  `json:"mix"`
	Scheme     string  `json:"scheme"`
	Contexts   int     `json:"contexts"`
	Seed       uint64  `json:"seed"`
	IPC        float64 `json:"ipc"`
	Cycles     int64   `json:"cycles"`
	Instrs     int64   `json:"instrs"`
	Ops        int64   `json:"ops"`
	ElapsedSec float64 `json:"elapsed_sec"`
}

// rowsFrom flattens successful results into output rows, reporting
// failed or timed-out jobs through warn. Cached results flatten
// exactly like fresh ones (the store replays the original elapsed
// time), so warm and cold sweeps emit identical rows.
func rowsFrom(results []vliwmt.SweepResult, warn func(error)) []row {
	var rows []row
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		ipc, ierr := r.IPC()
		if ierr != nil {
			warn(ierr)
			continue
		}
		mix, _, _ := strings.Cut(r.Job.Describe(), "/")
		rows = append(rows, row{
			Mix:        mix,
			Scheme:     r.Job.SchemeName(),
			Contexts:   r.Job.EffectiveContexts(),
			Seed:       r.Job.Seed,
			IPC:        ipc,
			Cycles:     r.Res.Cycles,
			Instrs:     r.Res.Instrs,
			Ops:        r.Res.Ops,
			ElapsedSec: r.Elapsed.Seconds(),
		})
	}
	return rows
}

// writeCSV emits the -format csv document.
func writeCSV(w io.Writer, rows []row) error {
	headers := []string{"mix", "scheme", "contexts", "seed", "ipc", "cycles", "instrs", "ops", "elapsed_sec"}
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{r.Mix, r.Scheme, fmt.Sprint(r.Contexts), fmt.Sprint(r.Seed),
			report.F(r.IPC), fmt.Sprint(r.Cycles), fmt.Sprint(r.Instrs), fmt.Sprint(r.Ops),
			fmt.Sprintf("%.3f", r.ElapsedSec)})
	}
	return report.CSV(w, headers, tr)
}

// readJobs decodes the sweep-request document named by -jobs (- for
// stdin) into its job set: the grid's jobs, then the explicit ones, as
// the server runs them.
func readJobs(name string) ([]vliwmt.SweepJob, error) {
	in := os.Stdin
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	req, err := api.DecodeSweepRequest(in)
	if err != nil {
		return nil, err
	}
	return req.Expand()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwsweep: ")
	var (
		addr       = flag.String("addr", "", "submit the grid to a remote vliwserve at this address instead of running in-process")
		jobsFile   = flag.String("jobs", "", "read a sweep-request JSON document (a declarative grid, an explicit job set, or both: grid jobs run first) from this file, - for stdin; replaces -schemes/-mixes")
		schemes    = flag.String("schemes", "", "comma-separated merge schemes — names or tree expressions like C(S(T0,T1),T2,T3) (default: the paper's sixteen)")
		mixes      = flag.String("mixes", "", "comma-separated Table 2 mixes or genmix:<LMH combo>:s<seed> names (default: all nine)")
		workers    = flag.Int("workers", 0, "worker pool size (0: runtime.NumCPU())")
		seed       = flag.Uint64("seed", 1, "sweep seed; per-job seeds derive from it")
		instr      = flag.Int64("instr", 300_000, "per-thread instruction budget")
		timeslice  = flag.Int64("timeslice", 0, "OS quantum in cycles (0: budget/100, at least 1000)")
		sharedSeed = flag.Bool("sharedseed", false, "give every job the sweep seed verbatim")
		store      = flag.String("store", "", "persistent result store directory: serve repeated jobs from disk, persist fresh ones")
		format     = flag.String("format", "text", "output format: text, json or csv")
		progress   = flag.Bool("progress", false, "report per-job progress on stderr")
		stats      = flag.Bool("stats", false, "print the sweep lifecycle summary (jobs, store hit ratio, p50/p99 job latency, jobs/s) on stderr")
		logLevel   = flag.String("log-level", "", "enable structured sweep tracing on stderr at this level: debug, info, warn or error (empty: off; debug adds a line per job)")
		logJSON    = flag.Bool("log-json", false, "emit structured traces as JSON lines instead of text (implies -log-level info)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the sweep to this file")
	)
	flag.Parse()
	switch *format {
	case "text", "json", "csv":
	default:
		log.Fatalf("unknown -format %q (want text, json or csv)", *format)
	}
	if *logLevel != "" || *logJSON {
		lv := *logLevel
		if lv == "" {
			lv = "info"
		}
		if _, err := telemetry.ConfigureSlog(os.Stderr, lv, *logJSON); err != nil {
			log.Fatal(err)
		}
	}
	if *addr != "" && *store != "" {
		// The remote server owns its own store (vliwserve -results);
		// silently ignoring -store would look like caching that never
		// happens.
		log.Fatal("-store applies to in-process sweeps; with -addr, configure the store on the server (-results)")
	}
	// Profiling starts only after flag validation, and fatal paths go
	// through fatal() below so an error mid-sweep still flushes the
	// profiles instead of leaving a truncated cpu.prof.
	stopProf, perr := profiling.Start(*cpuprofile, *memprofile)
	if perr != nil {
		log.Fatal(perr)
	}
	fatal := func(v ...any) {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
		log.Fatal(v...)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	grid := vliwmt.Grid{
		Schemes:         merge.SplitNames(*schemes),
		Mixes:           merge.SplitNames(*mixes),
		InstrLimit:      *instr,
		TimesliceCycles: *timeslice,
		Seed:            *seed,
		SharedSeed:      *sharedSeed,
	}
	// -jobs replaces the flag-built grid with a decoded request's job
	// set.
	var jobs []vliwmt.SweepJob
	if *jobsFile != "" {
		if *schemes != "" || *mixes != "" {
			fatal("-jobs carries its own grid or job set; drop -schemes/-mixes")
		}
		var err error
		if jobs, err = readJobs(*jobsFile); err != nil {
			fatal(err)
		}
	}
	opts := &vliwmt.SweepOptions{Workers: *workers}
	if *progress {
		opts.Progress = func(done, total int, r vliwmt.SweepResult) {
			status := "ok"
			if r.Err != nil {
				status = r.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-12s %6.2fs  %s\n",
				done, total, r.Job.Describe(), r.Elapsed.Seconds(), status)
		}
	}

	// Ctrl-C cancels the sweep; completed jobs are still reported. Once
	// cancelled, stop() restores default signal handling so a second
	// Ctrl-C kills the process instead of being swallowed while
	// in-flight jobs drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	// In-process sweeps run on a Runner over the process-wide compile
	// cache; -store roots its result store.
	local := vliwmt.NewRunner(vliwmt.WithCache(vliwmt.SharedCompileCache()), vliwmt.WithWorkers(*workers),
		vliwmt.WithProgress(opts.Progress), vliwmt.WithResultStore(*store))
	start := time.Now()
	var results []vliwmt.SweepResult
	var err error
	switch {
	case *addr != "" && jobs != nil:
		results, err = vliwmt.NewClient(*addr).SweepJobs(ctx, jobs, opts)
	case *addr != "":
		results, err = vliwmt.NewClient(*addr).Sweep(ctx, grid, opts)
	case jobs != nil:
		results, err = local.SweepJobs(ctx, jobs)
	default:
		results, err = local.Sweep(ctx, grid)
	}
	elapsed := time.Since(start)
	if err != nil && results == nil {
		fatal(err)
	}

	rows := rowsFrom(results, func(err error) { log.Print(err) })

	w := os.Stdout
	switch *format {
	case "json":
		if jerr := report.JSON(w, rows); jerr != nil {
			fatal(jerr)
		}
	case "csv":
		if cerr := writeCSV(w, rows); cerr != nil {
			fatal(cerr)
		}
	case "text":
		var tr [][]string
		for _, r := range rows {
			tr = append(tr, []string{r.Mix, r.Scheme, fmt.Sprint(r.Contexts),
				report.F(r.IPC), fmt.Sprint(r.Cycles), fmt.Sprintf("%.2fs", r.ElapsedSec)})
		}
		report.Table(w, []string{"mix", "scheme", "threads", "IPC", "cycles", "time"}, tr)
		fmt.Fprintf(w, "\n%d/%d jobs in %.2fs (workers=%d)\n",
			len(rows), len(results), elapsed.Seconds(), sweep.PoolSize(*workers))
	}
	if *stats {
		// The lifecycle summary goes to stderr so -format json/csv
		// stdout stays machine-readable. Computed from the results
		// either way, so it works for -addr sweeps too (cached jobs
		// carry the replayed original elapsed times).
		fmt.Fprintln(os.Stderr, vliwmt.SummarizeSweep(results, elapsed))
	}
	if err != nil {
		fatal(err)
	}
}
