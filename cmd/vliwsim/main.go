// Command vliwsim runs one workload on the multithreaded clustered VLIW
// simulator and reports performance and merge statistics.
//
// Usage:
//
//	vliwsim -mix LLHH -scheme 2SC3 -instrs 1000000
//	vliwsim -mix LLHH -scheme 'S(C(T0,T1,T2),T3)'
//	vliwsim -bench mcf,x264 -scheme 1S -contexts 2
//	vliwsim -bench colorspace -contexts 1 -perfect
//
// Schemes are named by the paper's grammar ("3SSS", "2SC3", "C4"), the
// IMT/BMT baselines, or any custom merge tree written in the canonical
// tree-expression grammar of vliwmt.DescribeScheme.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"vliwmt"
	"vliwmt/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwsim: ")
	var (
		mixName  = flag.String("mix", "", "Table 2 workload mix to run (LLLL .. HHHH)")
		benches  = flag.String("bench", "", "comma-separated benchmark list (alternative to -mix)")
		scheme   = flag.String("scheme", "2SC3", "merging scheme: a name (see -list), IMT/BMT, or a tree expression like 'C(S(T0,T1),T2,T3)'")
		contexts = flag.Int("contexts", 4, "hardware thread contexts")
		instrs   = flag.Int64("instrs", 1_000_000, "per-thread instruction budget")
		slice    = flag.Int64("timeslice", 0, "OS timeslice in cycles (default instrs/100)")
		perfect  = flag.Bool("perfect", false, "perfect memory (no caches)")
		fixed    = flag.Bool("fixed-priority", false, "disable round-robin priority rotation")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		list     = flag.Bool("list", false, "list benchmarks, mixes and schemes, then exit")
	)
	flag.Parse()

	if *list {
		printLists()
		return
	}

	cfg := vliwmt.DefaultConfig()
	cfg.Contexts = *contexts
	cfg.Scheme = *scheme
	// An explicit -contexts wins; otherwise size the machine to the
	// scheme, so e.g. -scheme 'C(S(T0,T1),T2)' runs on 3 contexts
	// without further flags.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if !explicit["contexts"] {
		if sch, err := vliwmt.ParseScheme(*scheme); err == nil && sch.Ports() > 0 {
			cfg.Contexts = sch.Ports()
		}
	}
	cfg.InstrLimit = *instrs
	cfg.PerfectMemory = *perfect
	cfg.FixedPriority = *fixed
	cfg.Seed = *seed
	if *slice > 0 {
		cfg.TimesliceCycles = *slice
	} else {
		cfg.TimesliceCycles = max64(*instrs/100, 1000)
	}

	var res *vliwmt.Result
	var err error
	switch {
	case *mixName != "" && *benches != "":
		log.Fatal("use either -mix or -bench, not both")
	case *mixName != "":
		res, err = vliwmt.RunMix(cfg, *mixName)
	case *benches != "":
		var tasks []vliwmt.Task
		for _, name := range strings.Split(*benches, ",") {
			name = strings.TrimSpace(name)
			p, cerr := vliwmt.CompileBenchmark(name, cfg.Machine)
			if cerr != nil {
				log.Fatal(cerr)
			}
			tasks = append(tasks, vliwmt.Task{Name: name, Prog: p})
		}
		res, err = vliwmt.Run(cfg, tasks)
	default:
		log.Fatal("specify -mix or -bench (try -list)")
	}
	if err != nil {
		log.Fatal(err)
	}
	printResult(cfg, res)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func printLists() {
	fmt.Println("Benchmarks (Table 1):")
	for _, b := range vliwmt.Benchmarks() {
		fmt.Printf("  %-11s %s  %s (paper IPCr %.2f, IPCp %.2f)\n", b.Name, b.Class, b.Description, b.PaperIPCr, b.PaperIPCp)
	}
	fmt.Println("\nMixes (Table 2):")
	for _, m := range vliwmt.Mixes() {
		fmt.Printf("  %-5s %s\n", m.Name, strings.Join(m.Members[:], " "))
	}
	fmt.Println("\nSchemes (Figure 9 order):")
	printScheme := func(name string) {
		sch, err := vliwmt.ParseScheme(name)
		if err != nil {
			fmt.Printf("  %-8s %v\n", name, err)
			return
		}
		tree := ""
		if t := sch.Tree(); t != nil {
			tree = t.String()
		}
		fmt.Printf("  %-8s %-28s %s\n", name, tree, sch.Describe())
	}
	for _, s := range vliwmt.Schemes() {
		printScheme(s)
	}
	printScheme("IMT")
	printScheme("BMT")
	fmt.Println("\nAny canonical tree expression also names a scheme, e.g. -scheme 'S(C(T0,T1,T2),T3)'.")
}

func printResult(cfg vliwmt.Config, res *vliwmt.Result) {
	fmt.Printf("machine: %s, scheme %s, %d contexts\n", cfg.Machine, cfg.Scheme, cfg.Contexts)
	if res.TimedOut {
		fmt.Println("WARNING: run hit the cycle bound before any thread finished")
	}
	fmt.Printf("cycles %d   instructions %d   operations %d   IPC %.3f\n\n",
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
	report.Table(os.Stdout, []string{"thread", "instrs", "ops", "conflict", "stall-mem", "stall-fetch", "stall-br"}, rows)

	fmt.Println()
	labels := make([]string, len(res.MergeHist))
	values := make([]float64, len(res.MergeHist))
	for k := range res.MergeHist {
		labels[k] = fmt.Sprintf("%d threads/cycle", k)
		values[k] = float64(res.MergeHist[k])
	}
	report.BarChart(os.Stdout, "merge distribution (cycles by threads issued together)", labels, values, 40)

	if !cfg.PerfectMemory {
		fmt.Printf("\nICache: %d accesses, %d misses (%.2f%%)   DCache: %d accesses, %d misses (%.2f%%)\n",
			res.ICache.Accesses, res.ICache.Misses, 100*res.ICache.MissRate(),
			res.DCache.Accesses, res.DCache.Misses, 100*res.DCache.MissRate())
	}
}
