// Command paperfigs regenerates every table and figure of the paper's
// evaluation section from the simulator and the gate-level cost model:
//
//	Table 1   per-benchmark IPCr/IPCp
//	Table 2   workload mixes
//	Figure 4  SMT IPC vs hardware thread count
//	Figure 5  merge control cost vs thread count, 2-8 threads (CSMT SL/PL, SMT)
//	Figure 6  SMT advantage over CSMT per workload
//	Figure 9  cost and merge tree of the sixteen merging schemes
//	Figure 10 per-workload IPC of every scheme
//	Figure 11 performance vs transistors, Pareto-optimal schemes marked
//	Figure 12 performance vs gate delays, Pareto-optimal schemes marked
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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"vliwmt/internal/experiments"
	"vliwmt/internal/merge"
	"vliwmt/internal/profiling"
	"vliwmt/internal/report"
	"vliwmt/internal/sweep"
	"vliwmt/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run regenerates the figures args select and writes them to w.
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("paperfigs", flag.ExitOnError)
	var (
		all        = fs.Bool("all", false, "emit every table and figure")
		table1     = fs.Bool("table1", false, "Table 1")
		table2     = fs.Bool("table2", false, "Table 2")
		fig4       = fs.Bool("fig4", false, "Figure 4")
		fig5       = fs.Bool("fig5", false, "Figure 5")
		fig6       = fs.Bool("fig6", false, "Figure 6")
		fig9       = fs.Bool("fig9", false, "Figure 9")
		fig10      = fs.Bool("fig10", false, "Figure 10")
		fig11      = fs.Bool("fig11", false, "Figure 11")
		fig12      = fs.Bool("fig12", false, "Figure 12")
		ext8       = fs.Bool("ext8", false, "extension: 8-thread scaling (beyond the paper)")
		instrs     = fs.Int64("instrs", 500_000, "per-thread instruction budget")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		workers    = fs.Int("workers", 0, "sweep worker pool size (0: all cores); results are identical at any count")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the regeneration to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken at exit to this file")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag
	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	// Every return flushes the profiles, so an error mid-regeneration
	// still leaves a complete cpu.prof.
	defer func() { err = errors.Join(err, stopProf()) }()
	opts := experiments.DefaultOptions().Scale(*instrs)
	opts.Seed = *seed
	opts.Workers = *workers
	effWorkers := sweep.PoolSize(*workers)

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
			return err
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
			return err
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
			return err
		}
		fmt.Fprintln(w, "== Figure 5: thread merge control cost vs threads ==")
		var tr [][]string
		var xs, ys []float64
		var lab []string
		for _, p := range pts {
			tr = append(tr, []string{fmt.Sprint(p.Threads),
				fmt.Sprint(p.CSMTSerial.Transistors), fmt.Sprint(p.CSMTSerial.GateDelays),
				fmt.Sprint(p.CSMTParallel.Transistors), fmt.Sprint(p.CSMTParallel.GateDelays),
				fmt.Sprint(p.SMT.Transistors), fmt.Sprint(p.SMT.GateDelays)})
			n := float64(p.Threads)
			xs = append(xs, n, n, n)
			ys = append(ys, float64(p.CSMTSerial.Transistors), float64(p.CSMTParallel.Transistors), float64(p.SMT.Transistors))
			lab = append(lab, fmt.Sprintf("SL/%d", p.Threads), fmt.Sprintf("PL/%d", p.Threads), fmt.Sprintf("SMT/%d", p.Threads))
		}
		report.Table(w, []string{"threads", "csmt-sl tr", "delay", "csmt-pl tr", "delay", "smt tr", "delay"}, tr)
		report.Scatter(w, "Figure 5a (log transistors vs threads)", "threads", "transistors", lab, xs, ys, true)
		fmt.Fprintln(w)
	}

	if want(fig6) {
		done := timed("Figure 6")
		rows, err := experiments.Fig6(opts)
		if err != nil {
			return err
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
			return err
		}
		fmt.Fprintln(w, "== Figure 9: merging hardware cost per scheme ==")
		var tr [][]string
		var labels []string
		var delays []float64
		for _, c := range costs {
			sch, err := merge.Resolve(c.Scheme)
			if err != nil {
				return err
			}
			tr = append(tr, []string{c.Scheme, fmt.Sprint(c.Transistors), fmt.Sprint(c.GateDelays), sch.String()})
			labels = append(labels, c.Scheme)
			delays = append(delays, float64(c.GateDelays))
		}
		report.Table(w, []string{"scheme", "transistors", "gate delays", "structure"}, tr)
		report.BarChart(w, "gate delays", labels, delays, 40)
		fmt.Fprintln(w)
	}

	var fig10Rows []experiments.Figure10Row
	if want(fig10) || want(fig11) || want(fig12) {
		done := timed("Figure 10 sweep (16 schemes x 9 mixes)")
		if fig10Rows, err = experiments.Fig10(opts); err != nil {
			return err
		}
		done()
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
			return err
		}
		if *all || *fig11 {
			printTradeoff(w, pts, false)
		}
		if *all || *fig12 {
			printTradeoff(w, pts, true)
		}
	}

	if want(ext8) {
		done := timed("Extension: 8 threads")
		rows, err := experiments.Scaling8(opts)
		if err != nil {
			return err
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
			return err
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
	return nil
}

// printTradeoff prints Figure 11 (delays false: cost is transistors) or
// Figure 12 (cost is gate delays) and marks each Pareto-optimal scheme:
// no other scheme costs at most as much and performs at least as well,
// and is better in one of the two.
func printTradeoff(w io.Writer, pts []experiments.TradeoffPoint, delays bool) {
	fig, name, cost := 11, "transistors", func(p experiments.TradeoffPoint) int { return p.Transistors }
	if delays {
		fig, name, cost = 12, "gate delays", func(p experiments.TradeoffPoint) int { return p.GateDelays }
	}
	fmt.Fprintf(w, "== Figure %d: performance vs %s ==\n", fig, name)
	var labels []string
	var xs, ys []float64
	var tr [][]string
	for _, p := range pts {
		mark := "*"
		for _, q := range pts {
			if cost(q) <= cost(p) && q.IPC >= p.IPC && (cost(q) < cost(p) || q.IPC > p.IPC) {
				mark = ""
				break
			}
		}
		labels = append(labels, p.Scheme)
		xs = append(xs, p.IPC)
		ys = append(ys, float64(cost(p)))
		tr = append(tr, []string{p.Scheme, report.F(p.IPC), fmt.Sprint(p.Transistors), fmt.Sprint(p.GateDelays), mark})
	}
	report.Table(w, []string{"scheme", "avg IPC", "transistors", "gate delays", "pareto"}, tr)
	fmt.Fprintf(w, "* = Pareto-optimal: no other scheme has at most its %s and at least its IPC, and is better in one\n", name)
	report.Scatter(w, "IPC (x) vs "+name+" (y)", "IPC", name, labels, xs, ys, false)
	fmt.Fprintln(w, strings.Repeat("-", 70))
}
