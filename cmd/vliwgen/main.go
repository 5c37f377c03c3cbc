// Command vliwgen emits synthetic workloads from the deterministic
// generator in internal/wgen: kernel names and profiles, Table-2-style
// generated mixes, declarative sweep grids over generated mixes, and
// multi-tenant request-stream scenarios — all as JSON consumable by
// vliwsweep (-jobs) and vliwserve (POST /v1/sweeps).
//
//	vliwgen -emit kernels -n 8 -class H -seed 1     # canonical names + profiles
//	vliwgen -emit kernels -n 1 -ir                  # include the generated IR
//	vliwgen -emit mixes -n 4 -combos LLHH,HHHH      # genmix names
//	vliwgen -emit grid -combos LLHH -schemes 2SC3,C4 | vliwsweep -jobs -
//	vliwgen -emit stream -requests 64 -tenants 3 | vliwsweep -jobs -
//
// Everything vliwgen prints is a pure function of its flags: the same
// invocation always emits byte-identical JSON, so generated scenarios
// are reproducible from the command line that made them. Benchmarks
// travel as canonical "gen:" names (mixes as "genmix:" names), which
// every consumer — vliwsweep, vliwserve — regenerates deterministically;
// no kernel bytes cross the wire.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"vliwmt"
	"vliwmt/internal/api"
	"vliwmt/internal/merge"
	"vliwmt/internal/wgen"
)

// kernelDoc is one emitted kernel: its canonical name, the profile it
// encodes, and optionally the generated IR itself.
type kernelDoc struct {
	Name    string         `json:"name"`
	Profile wgen.Profile   `json:"profile"`
	Seed    uint64         `json:"seed"`
	IR      *vliwmt.Kernel `json:"ir,omitempty"`
}

// mixDoc is one emitted generated mix.
type mixDoc struct {
	Name    string    `json:"name"`
	Members [4]string `json:"members"`
}

// parseClasses expands -class: empty cycles L,M,H; otherwise a comma
// list of class letters.
func parseClasses(s string) ([]wgen.Class, error) {
	if s == "" {
		return []wgen.Class{wgen.Low, wgen.Medium, wgen.High}, nil
	}
	var out []wgen.Class
	for _, part := range strings.Split(s, ",") {
		c, err := wgen.ParseClass(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// splitList splits a comma list, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run() error {
	var (
		emit     = flag.String("emit", "kernels", "what to emit: kernels, mixes, grid or stream")
		n        = flag.Int("n", 4, "how many kernels or mixes to emit")
		class    = flag.String("class", "", "ILP classes for -emit kernels, comma-separated L/M/H (empty: cycle through all three)")
		combos   = flag.String("combos", "", "4-letter ILP-class combinations for mixes/grid/stream, comma-separated (empty: the default palette)")
		schemes  = flag.String("schemes", "", "merge schemes for -emit grid (grid default: the paper's sixteen) and -emit stream (stream default: none, single-context multitasking)")
		seed     = flag.Uint64("seed", 1, "generator seed; every emitted document derives from it deterministically")
		instr    = flag.Int64("instr", 0, "per-thread instruction budget for grid/stream jobs (0: the sweep default of 300k)")
		requests = flag.Int("requests", 32, "stream length for -emit stream")
		tenants  = flag.Int("tenants", 1, "tenant count for -emit stream")
		mean     = flag.Float64("mean", 10_000, "mean exponential interarrival in cycles for -emit stream")
		withIR   = flag.Bool("ir", false, "include the generated IR in -emit kernels output")
	)
	flag.Parse()
	if *n < 1 || *n > 4096 {
		return fmt.Errorf("-n %d outside [1, 4096]", *n)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")

	switch *emit {
	case "kernels":
		cls, err := parseClasses(*class)
		if err != nil {
			return err
		}
		rng := wgen.NewRand(*seed)
		docs := make([]kernelDoc, *n)
		for i := range docs {
			p := wgen.RandomProfile(rng, cls[i%len(cls)])
			ks := rng.Uint64()
			d := kernelDoc{Name: wgen.BenchmarkName(p, ks), Profile: p.Quantize(), Seed: ks}
			if *withIR {
				d.IR = wgen.MustGenerate(p, ks)
			}
			docs[i] = d
		}
		return enc.Encode(docs)

	case "mixes":
		palette := splitList(*combos)
		if len(palette) == 0 {
			palette = wgen.DefaultCombos
		}
		rng := wgen.NewRand(*seed)
		docs := make([]mixDoc, *n)
		for i := range docs {
			combo := palette[i%len(palette)]
			ms := rng.Uint64()
			name, err := wgen.MixName(combo, ms)
			if err != nil {
				return err
			}
			members, err := wgen.MixMembers(combo, ms)
			if err != nil {
				return err
			}
			docs[i] = mixDoc{Name: name, Members: members}
		}
		return enc.Encode(docs)

	case "grid":
		palette := splitList(*combos)
		if len(palette) == 0 {
			palette = wgen.DefaultCombos
		}
		schemeList := splitList(*schemes)
		for _, s := range schemeList {
			if _, err := merge.Resolve(s); err != nil {
				return fmt.Errorf("scheme %s: %w", s, err)
			}
		}
		rng := wgen.NewRand(*seed)
		var mixNames []string
		for i := 0; i < *n; i++ {
			name, err := wgen.MixName(palette[i%len(palette)], rng.Uint64())
			if err != nil {
				return err
			}
			mixNames = append(mixNames, name)
		}
		req := api.SweepRequest{
			Version: api.Version,
			Grid: &vliwmt.Grid{
				Schemes:    schemeList,
				Mixes:      mixNames,
				InstrLimit: *instr,
				Seed:       *seed,
			},
		}
		return api.EncodeSweepRequest(os.Stdout, req)

	case "stream":
		reqs, err := wgen.GenerateStream(wgen.StreamOptions{
			Requests:         *requests,
			Tenants:          *tenants,
			MeanInterarrival: *mean,
			Combos:           splitList(*combos),
			Schemes:          splitList(*schemes),
		}, *seed)
		if err != nil {
			return err
		}
		for _, s := range splitList(*schemes) {
			if _, err := merge.Resolve(s); err != nil {
				return fmt.Errorf("scheme %s: %w", s, err)
			}
		}
		jobs := vliwmt.StreamJobs(reqs, *instr)
		wire := make([]api.Job, len(jobs))
		for i, j := range jobs {
			wire[i] = api.JobFrom(j)
		}
		return api.EncodeSweepRequest(os.Stdout, api.SweepRequest{Version: api.Version, Jobs: wire})

	default:
		return fmt.Errorf("unknown -emit %q (want kernels, mixes, grid or stream)", *emit)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwgen: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}
