// Example sweepgrid drives the public sweep API over the paper's full
// evaluation grid — all sixteen merging schemes on all nine workload
// mixes — on every core, with a live progress callback, then prints the
// per-scheme average IPC in Figure 10 style.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"

	"vliwmt"
)

func main() {
	log.SetFlags(0)
	grid := vliwmt.Grid{
		// Empty Schemes/Mixes select the paper's sixteen schemes and
		// nine mixes; a modest budget keeps the example interactive.
		InstrLimit: 50_000,
		Seed:       1,
		// One seed for every job: the ranking compares schemes, and
		// per-job derived seeds would swap 3SCS and 3SSC in it.
		SharedSeed: true,
	}
	opts := &vliwmt.SweepOptions{
		Progress: func(done, total int, r vliwmt.SweepResult) {
			fmt.Fprintf(os.Stderr, "\r%3d/%d %-14s", done, total, r.Job.Describe())
		},
	}
	results, err := vliwmt.Sweep(context.Background(), grid, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintln(os.Stderr)

	// Average each scheme over the nine mixes.
	sum := map[string]float64{}
	n := map[string]int{}
	for _, r := range results {
		ipc, err := r.IPC()
		if err != nil {
			log.Fatal(err)
		}
		sum[r.Job.Scheme] += ipc
		n[r.Job.Scheme]++
	}
	type avg struct {
		scheme string
		ipc    float64
	}
	var avgs []avg
	for s := range sum {
		avgs = append(avgs, avg{s, sum[s] / float64(n[s])})
	}
	sort.Slice(avgs, func(i, j int) bool {
		if avgs[i].ipc != avgs[j].ipc {
			return avgs[i].ipc > avgs[j].ipc
		}
		return avgs[i].scheme < avgs[j].scheme
	})
	fmt.Println("scheme   avg IPC over the nine mixes")
	for _, a := range avgs {
		fmt.Printf("%-8s %.3f\n", a.scheme, a.ipc)
	}
}
