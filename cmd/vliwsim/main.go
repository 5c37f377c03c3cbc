// Command vliwsim runs one workload on the multithreaded clustered VLIW
// simulator and reports performance and merge statistics.
//
// Usage:
//
//	vliwsim -mix LLHH -scheme 2SC3 -instrs 1000000
//	vliwsim -mix LLHH -scheme 'S(C(T0,T1,T2),T3)'
//	vliwsim -bench mcf,x264 -scheme 1S
//	vliwsim -bench colorspace -contexts 1 -perfect
//
// Schemes are named by the paper's grammar ("3SSS", "2SC3", "C4"), the
// IMT/BMT baselines, or any custom merge tree written in the canonical
// tree-expression grammar of vliwmt.DescribeScheme.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"vliwmt"
	"vliwmt/internal/report"
	"vliwmt/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates the workload args name and writes the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vliwsim", flag.ExitOnError)
	var (
		mixName  = fs.String("mix", "", "Table 2 workload mix to run (LLLL .. HHHH)")
		benches  = fs.String("bench", "", "comma-separated benchmark list (alternative to -mix)")
		scheme   = fs.String("scheme", "2SC3", "merging scheme: a name (see -list), IMT/BMT, or a tree expression like 'C(S(T0,T1),T2,T3)'")
		contexts = fs.Int("contexts", 0, "hardware thread contexts (0: the scheme's port count)")
		instrs   = fs.Int64("instrs", 1_000_000, "per-thread instruction budget")
		slice    = fs.Int64("timeslice", 0, "OS timeslice in cycles (default instrs/100, at least 1000)")
		perfect  = fs.Bool("perfect", false, "perfect memory (no caches)")
		fixed    = fs.Bool("fixed-priority", false, "disable round-robin priority rotation")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		list     = fs.Bool("list", false, "list benchmarks, mixes and schemes, then exit")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag

	if *list {
		printLists(w)
		return nil
	}

	cfg := vliwmt.DefaultConfig()
	// An unset -contexts sizes the machine to the scheme, so e.g.
	// -scheme 'C(S(T0,T1),T2)' runs on 3 contexts without further flags.
	cfg.Contexts = *contexts
	cfg.Scheme = *scheme
	cfg.InstrLimit = *instrs
	cfg.PerfectMemory = *perfect
	cfg.FixedPriority = *fixed
	cfg.Seed = *seed
	cfg.TimesliceCycles = *slice
	if *slice <= 0 {
		cfg.TimesliceCycles = sim.ScaledTimeslice(*instrs)
	}

	var res *vliwmt.Result
	var err error
	switch {
	case *mixName != "" && *benches != "":
		return errors.New("use either -mix or -bench, not both")
	case *mixName != "":
		res, err = vliwmt.RunMix(cfg, *mixName)
	case *benches != "":
		names := strings.Split(*benches, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		tasks, cerr := vliwmt.NewCompileCache().Tasks(names, cfg.Machine)
		if cerr != nil {
			return cerr
		}
		res, err = vliwmt.Run(cfg, tasks)
	default:
		return errors.New("specify -mix or -bench (try -list)")
	}
	if err != nil {
		return err
	}
	return printResult(w, cfg, res)
}

func printLists(w io.Writer) {
	fmt.Fprintln(w, "Benchmarks (Table 1):")
	for _, b := range vliwmt.Benchmarks() {
		fmt.Fprintf(w, "  %-11s %s  %s (paper IPCr %.2f, IPCp %.2f)\n", b.Name, b.Class, b.Description, b.PaperIPCr, b.PaperIPCp)
	}
	fmt.Fprintln(w, "\nMixes (Table 2):")
	for _, m := range vliwmt.Mixes() {
		fmt.Fprintf(w, "  %-5s %s\n", m.Name, strings.Join(m.Members[:], " "))
	}
	fmt.Fprintln(w, "\nSchemes (Figure 9 order):")
	for _, name := range append(vliwmt.Schemes(), "IMT", "BMT") {
		sch, _ := vliwmt.ParseScheme(name) // every listed name resolves
		tree := ""
		if t := sch.Tree(); t != nil {
			tree = t.String()
		}
		fmt.Fprintf(w, "  %-8s %-28s %s\n", name, tree, sch.Describe())
	}
	fmt.Fprintln(w, "\nAny canonical tree expression also names a scheme, e.g. -scheme 'S(C(T0,T1,T2),T3)'.")
}

// printResult writes the run's report. The header names the merge
// control that ran: none at one context, where the simulator ignores
// the scheme, and for a merge tree also its structure and gate-level
// cost (the baselines have no merge control to cost).
func printResult(w io.Writer, cfg vliwmt.Config, res *vliwmt.Result) error {
	contexts := cfg.EffectiveContexts()
	if contexts == 1 {
		fmt.Fprintf(w, "machine: %s, no merging, 1 context\n", cfg.Machine)
	} else {
		sch, err := vliwmt.ParseScheme(cfg.Scheme)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "machine: %s, scheme %s, %d contexts\n", cfg.Machine, sch.Name(), contexts)
		if sch.Tree() != nil {
			c, err := vliwmt.Cost(cfg.Machine, cfg.Scheme)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "merge control: %s, %d transistors, %d gate delays\n", sch, c.Transistors, c.GateDelays)
		}
	}
	if res.TimedOut {
		fmt.Fprintln(w, "WARNING: run hit the cycle bound before any thread finished")
	}
	fmt.Fprintf(w, "cycles %d   instructions %d   operations %d   IPC %.3f\n\n",
		res.Cycles, res.Instrs, res.Ops, res.IPC)

	var rows [][]string
	for _, th := range res.Threads {
		rows = append(rows, []string{
			th.Name,
			fmt.Sprint(th.Instrs),
			fmt.Sprint(th.Ops),
			fmt.Sprint(th.ConflictCycles),
			fmt.Sprint(th.StallMem),
			fmt.Sprint(th.StallFetch),
			fmt.Sprint(th.StallBranch),
		})
	}
	report.Table(w, []string{"thread", "instrs", "ops", "conflict", "stall-mem", "stall-fetch", "stall-br"}, rows)

	fmt.Fprintln(w)
	labels := make([]string, len(res.MergeHist))
	values := make([]float64, len(res.MergeHist))
	for k := range res.MergeHist {
		labels[k] = fmt.Sprintf("%d threads/cycle", k)
		values[k] = float64(res.MergeHist[k])
	}
	report.BarChart(w, "merge distribution (cycles by threads issued together)", labels, values, 40)

	if !cfg.PerfectMemory {
		fmt.Fprintf(w, "\nICache: %d accesses, %d misses (%.2f%%)   DCache: %d accesses, %d misses (%.2f%%)\n",
			res.ICache.Accesses, res.ICache.Misses, 100*res.ICache.MissRate(),
			res.DCache.Accesses, res.DCache.Misses, 100*res.DCache.MissRate())
	}
	return nil
}
