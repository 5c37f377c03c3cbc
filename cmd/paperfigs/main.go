// Command paperfigs regenerates every table and figure of the paper's
// evaluation section from the simulator and the gate-level cost model:
//
//	Table 1   per-benchmark IPCr/IPCp
//	Table 2   workload mixes
//	Figure 4  SMT IPC vs hardware thread count
//	Figure 5  merge control cost vs thread count (CSMT SL/PL, SMT)
//	Figure 6  SMT advantage over CSMT per workload
//	Figure 9  cost of the sixteen merging schemes
//	Figure 10 per-workload IPC of every scheme
//	Figure 11 performance vs transistors
//	Figure 12 performance vs gate delays
//
// -all adds the 8-thread extension (-ext8) and this repository's
// ablations (priority rotation, the IMT/BMT baselines, compiler
// unrolling), both marked as the repository's claims, not the paper's.
//
// Absolute values depend on this repository's synthetic kernels and gate
// library; the relations between schemes are the reproduction target
// (see the README's "Quickstart: paperfigs" section).
//
// Usage:
//
//	paperfigs -all -instrs 2000000
//	paperfigs -fig10 -fig11
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"vliwmt/internal/experiments"
	"vliwmt/internal/profiling"
	"vliwmt/internal/report"
	"vliwmt/internal/sweep"
	"vliwmt/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")
	var (
		all        = flag.Bool("all", false, "emit every table and figure")
		table1     = flag.Bool("table1", false, "Table 1")
		table2     = flag.Bool("table2", false, "Table 2")
		fig4       = flag.Bool("fig4", false, "Figure 4")
		fig5       = flag.Bool("fig5", false, "Figure 5")
		fig6       = flag.Bool("fig6", false, "Figure 6")
		fig9       = flag.Bool("fig9", false, "Figure 9")
		fig10      = flag.Bool("fig10", false, "Figure 10")
		fig11      = flag.Bool("fig11", false, "Figure 11")
		fig12      = flag.Bool("fig12", false, "Figure 12")
		ext8       = flag.Bool("ext8", false, "extension: 8-thread scaling (beyond the paper)")
		instrs     = flag.Int64("instrs", 500_000, "per-thread instruction budget")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		workers    = flag.Int("workers", 0, "sweep worker pool size (0: all cores); results are identical at any count")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the regeneration to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	flag.Parse()
	stopProf, perr := profiling.Start(*cpuprofile, *memprofile)
	if perr != nil {
		log.Fatal(perr)
	}
	// Fatal paths go through fatal() so an error mid-regeneration still
	// flushes the profiles instead of leaving a truncated cpu.prof.
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
	opts := experiments.DefaultOptions().Scale(*instrs)
	opts.Seed = *seed
	opts.Workers = *workers
	effWorkers := sweep.PoolSize(*workers)
	w := os.Stdout

	// timed prints each figure's wall-clock cost, making the sweep
	// engine's parallel speedup visible: compare -workers 1 with the
	// default.
	timed := func(name string) func() {
		start := time.Now()
		return func() {
			fmt.Fprintf(w, "[%s: %.2fs wall clock at %d workers]\n\n", name, time.Since(start).Seconds(), effWorkers)
		}
	}

	any := false
	want := func(f *bool) bool {
		if *all || *f {
			any = true
			return true
		}
		return false
	}

	if want(table1) {
		done := timed("Table 1")
		rows, err := experiments.Table1(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "== Table 1: benchmarks (measured vs paper) ==")
		var tr [][]string
		for _, r := range rows {
			tr = append(tr, []string{r.Name, r.Class.String(), r.Description,
				report.F(r.IPCr), report.F(r.IPCp),
				report.F(r.PaperIPCr), report.F(r.PaperIPCp)})
		}
		report.Table(w, []string{"benchmark", "ilp", "description", "IPCr", "IPCp", "paper IPCr", "paper IPCp"}, tr)
		done()
	}

	if want(table2) {
		fmt.Fprintln(w, "== Table 2: workload configurations ==")
		var tr [][]string
		for _, m := range workload.Mixes() {
			tr = append(tr, append([]string{m.Name}, m.Members[:]...))
		}
		report.Table(w, []string{"ilp comb", "thread 0", "thread 1", "thread 2", "thread 3"}, tr)
		fmt.Fprintln(w)
	}

	if want(fig4) {
		done := timed("Figure 4")
		f, err := experiments.Fig4(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "== Figure 4: SMT performance vs thread count ==")
		report.BarChart(w, "average IPC over the nine workloads",
			[]string{"Single-thread", "2-Thread SMT (1S)", "4-Thread SMT (3SSS)"},
			[]float64{f.SingleThread, f.TwoThread, f.FourThread}, 48)
		fmt.Fprintf(w, "4-thread over 2-thread advantage: %s (paper: +61%%)\n",
			report.Percent(100*(f.FourThread-f.TwoThread)/f.TwoThread))
		done()
	}

	if want(fig5) {
		pts, err := experiments.Fig5(opts.Machine)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "== Figure 5: thread merge control cost vs threads ==")
		var tr [][]string
		var labels []string
		var sl, pl, smt []float64
		for _, p := range pts {
			tr = append(tr, []string{fmt.Sprint(p.Threads),
				fmt.Sprint(p.CSMTSerial.Transistors), fmt.Sprint(p.CSMTSerial.GateDelays),
				fmt.Sprint(p.CSMTParallel.Transistors), fmt.Sprint(p.CSMTParallel.GateDelays),
				fmt.Sprint(p.SMT.Transistors), fmt.Sprint(p.SMT.GateDelays)})
			labels = append(labels, fmt.Sprint(p.Threads))
			sl = append(sl, float64(p.CSMTSerial.Transistors))
			pl = append(pl, float64(p.CSMTParallel.Transistors))
			smt = append(smt, float64(p.SMT.Transistors))
		}
		report.Table(w, []string{"threads", "csmt-sl tr", "delay", "csmt-pl tr", "delay", "smt tr", "delay"}, tr)
		xs := make([]float64, 0, 3*len(pts))
		ys := make([]float64, 0, 3*len(pts))
		var lab []string
		for i, p := range pts {
			xs = append(xs, float64(p.Threads), float64(p.Threads), float64(p.Threads))
			ys = append(ys, sl[i], pl[i], smt[i])
			lab = append(lab, fmt.Sprintf("SL/%d", p.Threads), fmt.Sprintf("PL/%d", p.Threads), fmt.Sprintf("SMT/%d", p.Threads))
		}
		report.Scatter(w, "Figure 5a (log transistors vs threads)", "threads", "transistors", lab, xs, ys, true)
		fmt.Fprintln(w)
	}

	if want(fig6) {
		done := timed("Figure 6")
		rows, err := experiments.Fig6(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "== Figure 6: SMT performance advantage over CSMT (4 threads) ==")
		var labels []string
		var values []float64
		var tr [][]string
		for _, r := range rows {
			labels = append(labels, r.Mix)
			values = append(values, r.AdvantagePc)
			if r.Mix == "Average" {
				tr = append(tr, []string{r.Mix, "", "", report.Percent(r.AdvantagePc)})
				continue
			}
			tr = append(tr, []string{r.Mix, report.F(r.SMT), report.F(r.CSMT), report.Percent(r.AdvantagePc)})
		}
		report.Table(w, []string{"workload", "SMT IPC", "CSMT IPC", "advantage"}, tr)
		report.BarChart(w, "advantage (%)", labels, values, 40)
		fmt.Fprintln(w, "(paper: average +27%, maximum +58% on LLHH)")
		done()
	}

	if want(fig9) {
		costs, err := experiments.Fig9(opts.Machine)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "== Figure 9: merging hardware cost per scheme ==")
		var tr [][]string
		var labels []string
		var delays []float64
		for _, c := range costs {
			tr = append(tr, []string{c.Scheme, fmt.Sprint(c.Transistors), fmt.Sprint(c.GateDelays)})
			labels = append(labels, c.Scheme)
			delays = append(delays, float64(c.GateDelays))
		}
		report.Table(w, []string{"scheme", "transistors", "gate delays"}, tr)
		report.BarChart(w, "gate delays", labels, delays, 40)
		fmt.Fprintln(w)
	}

	var fig10Rows []experiments.Figure10Row
	fig10Needed := *all || *fig10 || *fig11 || *fig12
	if fig10Needed {
		done := timed("Figure 10 sweep (16 schemes x 9 mixes)")
		var err error
		fig10Rows, err = experiments.Fig10(opts)
		if err != nil {
			fatal(err)
		}
		done()
		any = true
	}

	if *all || *fig10 {
		fmt.Fprintln(w, "== Figure 10: merging schemes performance (IPC) ==")
		schemes := experiments.Fig10Schemes()
		headers := append([]string{"workload"}, schemes...)
		var tr [][]string
		for _, r := range fig10Rows {
			row := []string{r.Mix}
			for _, s := range schemes {
				row = append(row, report.F(r.IPC[s]))
			}
			tr = append(tr, row)
		}
		report.Table(w, headers, tr)
		fmt.Fprintln(w)
	}

	if *all || *fig11 || *fig12 {
		pts, err := experiments.Tradeoffs(opts.Machine, fig10Rows)
		if err != nil {
			fatal(err)
		}
		if *all || *fig11 {
			fmt.Fprintln(w, "== Figure 11: performance vs transistors ==")
			printTradeoff(w, pts, false)
		}
		if *all || *fig12 {
			fmt.Fprintln(w, "== Figure 12: performance vs gate delays ==")
			printTradeoff(w, pts, true)
		}
	}

	if want(ext8) {
		done := timed("Extension: 8 threads")
		rows, err := experiments.Scaling8(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "== Extension: 8 hardware threads (beyond the paper) ==")
		var tr [][]string
		for _, r := range rows {
			tr = append(tr, []string{r.Scheme, r.Structure, report.F(r.IPC),
				fmt.Sprint(r.Transistors), fmt.Sprint(r.GateDelays)})
		}
		report.Table(w, []string{"scheme", "structure", "IPC", "transistors", "gate delays"}, tr)
		done()
	}

	if *all {
		done := timed("Ablations")
		rows, err := experiments.Ablations(opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(w, "== Ablations: IPC gain of each design choice (repo claims, not the paper's) ==")
		var tr [][]string
		for _, r := range rows {
			for i, in := range r.Inputs {
				name := ""
				if i == 0 {
					name = r.Name
				}
				tr = append(tr, []string{name, in, report.Percent(r.GainPc[i])})
			}
			tr = append(tr, []string{"", "Average", report.Percent(r.Average())})
		}
		report.Table(w, []string{"ablation", "input", "gain"}, tr)
		done()
	}

	if !any {
		fmt.Fprintln(w, "nothing selected; use -all or individual flags (-table1 ... -fig12, -ext8)")
	}
}

func printTradeoff(w *os.File, pts []experiments.TradeoffPoint, delays bool) {
	var labels []string
	var xs, ys []float64
	var tr [][]string
	for _, p := range pts {
		labels = append(labels, p.Scheme)
		cost := float64(p.Transistors)
		if delays {
			cost = float64(p.GateDelays)
		}
		xs = append(xs, p.IPC)
		ys = append(ys, cost)
		tr = append(tr, []string{p.Scheme, report.F(p.IPC), fmt.Sprint(p.Transistors), fmt.Sprint(p.GateDelays)})
	}
	report.Table(w, []string{"scheme", "avg IPC", "transistors", "gate delays"}, tr)
	name := "transistors"
	if delays {
		name = "gate delays"
	}
	report.Scatter(w, "IPC (x) vs "+name+" (y)", "IPC", name, labels, xs, ys, false)
	fmt.Fprintln(w, strings.Repeat("-", 70))
}
