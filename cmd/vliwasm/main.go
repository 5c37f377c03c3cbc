// Command vliwasm compiles a Table 1 benchmark kernel and prints its
// scheduled clustered-VLIW code or its static statistics — the
// repository's equivalent of a compiler's -S output. The code size it
// reports lays instructions out at Instruction.EncodedSize bytes each;
// no binary encoding is produced.
//
// Usage:
//
//	vliwasm -bench idct
//	vliwasm -bench mcf -stats
package main

import (
	"flag"
	"fmt"
	"log"

	"vliwmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwasm: ")
	var (
		bench = flag.String("bench", "", "benchmark to compile (see vliwsim -list)")
		stats = flag.Bool("stats", false, "print static statistics only")
	)
	flag.Parse()
	if *bench == "" {
		log.Fatal("specify -bench")
	}
	m := vliwmt.DefaultMachine()
	p, err := vliwmt.CompileBenchmark(*bench, m)
	if err != nil {
		log.Fatal(err)
	}
	if *stats {
		ni, no := p.NumInstructions(), p.NumOps()
		fmt.Printf("program:       %s\n", p.Name)
		fmt.Printf("blocks:        %d\n", len(p.Blocks))
		fmt.Printf("instructions:  %d\n", ni)
		fmt.Printf("operations:    %d\n", no)
		fmt.Printf("ops/instr:     %.2f (static issue density)\n", p.StaticOpsPerInstr())
		fmt.Printf("code size:     %d bytes\n", p.CodeSize)
		fmt.Printf("branch sites:  %d\n", p.NumBranchSites)
		return
	}
	fmt.Print(p.Disassemble())
}
