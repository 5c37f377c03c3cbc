// Mediaserver: the paper's motivating deployment — an embedded media
// processor where high-ILP signal-processing jobs (imaging pipeline,
// colour-space conversion) share the machine with low-ILP control code
// (compression, protocol handling). Given a transistor budget for the
// thread merge control, pick the merging scheme that maximises
// throughput on the production workload mix.
package main

import (
	"fmt"
	"log"
	"sort"

	"vliwmt"
)

const transistorBudget = 3000 // merge-control budget from the area plan

func main() {
	log.SetFlags(0)
	machine := vliwmt.DefaultMachine()

	// The server's steady-state job mix: one imaging job, one codec job,
	// and two bursts of control-dominated work.
	jobs := []string{"imgpipe", "colorspace", "bzip2", "gsmencode"}
	var tasks []vliwmt.Task
	for _, j := range jobs {
		p, err := vliwmt.CompileBenchmark(j, machine)
		if err != nil {
			log.Fatal(err)
		}
		tasks = append(tasks, vliwmt.Task{Name: j, Prog: p})
	}

	type design struct {
		scheme      string
		ipc         float64
		transistors int
		delays      int
	}
	var feasible, rejected []design
	for _, scheme := range vliwmt.Schemes() {
		c, err := vliwmt.Cost(machine, scheme)
		if err != nil {
			log.Fatal(err)
		}
		sch, err := vliwmt.ParseScheme(scheme)
		if err != nil {
			log.Fatal(err)
		}
		cfg := vliwmt.DefaultConfig()
		cfg.Machine = machine
		cfg.Contexts = sch.Ports()
		cfg.Merge = sch
		cfg.InstrLimit = 200_000
		cfg.TimesliceCycles = 10_000
		res, err := vliwmt.Run(cfg, tasks)
		if err != nil {
			log.Fatal(err)
		}
		d := design{scheme, res.IPC, c.Transistors, c.GateDelays}
		if c.Transistors <= transistorBudget {
			feasible = append(feasible, d)
		} else {
			rejected = append(rejected, d)
		}
	}
	sort.Slice(feasible, func(i, j int) bool { return feasible[i].ipc > feasible[j].ipc })
	sort.Slice(rejected, func(i, j int) bool { return rejected[i].ipc > rejected[j].ipc })

	fmt.Printf("media server mix: %v\n", jobs)
	fmt.Printf("merge-control transistor budget: %d\n\n", transistorBudget)
	fmt.Printf("%-8s %-7s %8s %12s %8s\n", "status", "scheme", "IPC", "transistors", "delays")
	for _, d := range feasible {
		fmt.Printf("%-8s %-7s %8.3f %12d %8d\n", "OK", d.scheme, d.ipc, d.transistors, d.delays)
	}
	for _, d := range rejected {
		fmt.Printf("%-8s %-7s %8.3f %12d %8d\n", "over", d.scheme, d.ipc, d.transistors, d.delays)
	}
	if len(feasible) == 0 {
		log.Fatal("no scheme fits the budget")
	}
	best := feasible[0]
	fmt.Printf("\nselected: %s (%.3f IPC in %d transistors", best.scheme, best.ipc, best.transistors)
	if top := rejected; len(top) > 0 && top[0].ipc > best.ipc {
		fmt.Printf("; the unconstrained best, %s, is only %.1f%% faster at %.1fx the area",
			top[0].scheme, 100*(top[0].ipc-best.ipc)/best.ipc,
			float64(top[0].transistors)/float64(best.transistors))
	}
	fmt.Println(")")

}
