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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"vliwmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwasm: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run compiles the benchmark args name and writes its code or its
// statistics to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vliwasm", flag.ExitOnError)
	var (
		bench = fs.String("bench", "", "benchmark to compile (see vliwsim -list)")
		stats = fs.Bool("stats", false, "print static statistics only")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag
	if *bench == "" {
		return errors.New("specify -bench")
	}
	m := vliwmt.DefaultMachine()
	p, err := vliwmt.CompileBenchmark(*bench, m)
	if err != nil {
		return err
	}
	if *stats {
		ni, no := p.NumInstructions(), p.NumOps()
		fmt.Fprintf(w, "program:       %s\n", p.Name)
		fmt.Fprintf(w, "blocks:        %d\n", len(p.Blocks))
		fmt.Fprintf(w, "instructions:  %d\n", ni)
		fmt.Fprintf(w, "operations:    %d\n", no)
		fmt.Fprintf(w, "ops/instr:     %.2f (static issue density)\n", p.StaticOpsPerInstr())
		fmt.Fprintf(w, "code size:     %d bytes\n", p.CodeSize)
		fmt.Fprintf(w, "branch sites:  %d\n", p.NumBranchSites)
		return nil
	}
	_, err = io.WriteString(w, p.Disassemble())
	return err
}
