// Command benchjson converts `go test -bench` text output (read from
// stdin) into machine-readable JSON (written to stdout), so benchmark
// results can be committed and diffed across PRs:
//
//	go test -run '^$' -bench 'BenchmarkSimulator$' -benchmem -count 5 . | benchjson > BENCH_simcore.json
//
// Repeated runs of one benchmark (`-count N`) aggregate into one entry:
// every value — ns/op, B/op, allocs/op and each custom b.ReportMetric
// unit (cycles/s, avg-IPCp, ...) — becomes its median, min and max over
// the runs, next to the run count, so a recorded number always carries
// its spread. `make bench-simcore` and the CI benchmark step use it to
// track the simulator-core perf trajectory in BENCH_simcore.json.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Stat summarises one value over a benchmark's repeated runs.
type Stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Benchmark is one benchmark's runs, aggregated.
type Benchmark struct {
	Name string `json:"name"`
	// Count is the number of runs aggregated.
	Count int `json:"count"`
	// Iterations is b.N summed over the runs.
	Iterations  int64           `json:"iterations"`
	NsPerOp     Stat            `json:"ns_per_op"`
	BytesPerOp  *Stat           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *Stat           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]Stat `json:"metrics,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// run is one parsed result line: a benchmark name, its iteration count
// and its value per unit.
type run struct {
	name  string
	iters int64
	vals  map[string]float64
}

func main() {
	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	var runs []run
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Package = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			r, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			runs = append(runs, *r)
		}
	}
	rep.Benchmarks = aggregate(runs)
	return rep, sc.Err()
}

// parseLine parses one result line: name-GOMAXPROCS, the iteration
// count, then (value, unit) pairs.
func parseLine(line string) (*run, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return nil, fmt.Errorf("malformed benchmark line %q", line)
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		name = name[:i] // strip the -GOMAXPROCS suffix
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("iteration count in %q: %w", line, err)
	}
	r := &run{name: name, iters: iters, vals: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("value %q in %q: %w", fields[i], line, err)
		}
		r.vals[fields[i+1]] = val
	}
	return r, nil
}

// aggregate groups runs by benchmark name, in order of first
// appearance, and reduces every unit to its median, min and max over
// the runs that reported it.
func aggregate(runs []run) []Benchmark {
	var names []string
	byName := map[string][]run{}
	for _, r := range runs {
		if _, ok := byName[r.name]; !ok {
			names = append(names, r.name)
		}
		byName[r.name] = append(byName[r.name], r)
	}
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		b := Benchmark{Name: name, Count: len(byName[name])}
		samples := map[string][]float64{}
		for _, r := range byName[name] {
			b.Iterations += r.iters
			for u, v := range r.vals {
				samples[u] = append(samples[u], v)
			}
		}
		// Every unit lands in its own field or map key, so the
		// iteration order cannot show in the output.
		for u, xs := range samples {
			st := summarise(xs)
			switch u {
			case "ns/op":
				b.NsPerOp = st
			case "B/op":
				b.BytesPerOp = &st
			case "allocs/op":
				b.AllocsPerOp = &st
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]Stat{}
				}
				b.Metrics[u] = st
			}
		}
		out = append(out, b)
	}
	return out
}

// summarise returns the median (the mean of the middle two for an even
// count), min and max of xs, which must be non-empty.
func summarise(xs []float64) Stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	med := s[m]
	if len(s)%2 == 0 {
		med = (s[m-1] + s[m]) / 2
	}
	return Stat{Median: med, Min: s[0], Max: s[len(s)-1]}
}
