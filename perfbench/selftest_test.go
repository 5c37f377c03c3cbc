package main

// Self-test of the harness: every workload at a tiny size. Run it from
// this directory with `go test ./...`.

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// spec is the part of ../BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tiny(workload, state string) options {
	return options{workload: workload, seed: 7, seconds: 1, state: state, rounds: 1, instr: 3_000}
}

// fingerprintOf returns the fingerprint line of an untraced report.
func fingerprintOf(t *testing.T, rep *report) string {
	t.Helper()
	for _, n := range rep.notes {
		if strings.HasPrefix(n, "fingerprint ") {
			return n
		}
	}
	t.Fatal("report has no fingerprint")
	return ""
}

// TestMetricsAndRepeats runs every workload twice untraced and twice
// traced: each run must pass its checks and report exactly the metrics
// BENCHMARK.json lists, with their units; the second run of each kind
// must match the first run's fingerprint and exact counts (the harness
// fails a run that does not).
func TestMetricsAndRepeats(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			state := t.TempDir()
			for _, traced := range []bool{false, true} {
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				var fps []string
				for run := 0; run < 2; run++ {
					o := tiny(w.Name, state)
					o.trace = traced
					rep, err := runBench(o, io.Discard)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
						t.Fatalf("traced=%v run %d: correct=%v failed=%d attempted=%d: %q",
							traced, run, rep.Correct, rep.Failed, rep.Attempted, rep.notes)
					}
					if len(rep.Metrics) != len(want) {
						t.Errorf("traced=%v: %d metrics, BENCHMARK.json lists %d", traced, len(rep.Metrics), len(want))
					}
					for _, m := range want {
						got, ok := rep.Metrics[m.Name]
						if !ok || got.Unit != m.Unit {
							t.Errorf("traced=%v: metric %s = %+v (present %v), want unit %s", traced, m.Name, got, ok, m.Unit)
						}
					}
					if !traced {
						fps = append(fps, fingerprintOf(t, rep))
					}
				}
				if !traced && fps[0] != fps[1] {
					t.Errorf("fingerprint changed between invocations:\n%s\n%s", fps[0], fps[1])
				}
			}
		})
	}
}

// TestInjectedFailureIsCounted runs every workload with one job on an
// unknown scheme: the run must finish, count the failure in error_rate
// and report it on the summary line, rather than crash.
func TestInjectedFailureIsCounted(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := tiny(w.Name, t.TempDir())
			o.injectFailure = true
			rep, err := runBench(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct || rep.Failed < 1 || rep.Failed >= rep.Attempted {
				t.Fatalf("correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(s.EndToEnd) {
				t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(s.EndToEnd))
			}
			var out bytes.Buffer
			rep.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the summary: %v", err)
			}
			if last.Correct || last.Failed != rep.Failed {
				t.Errorf("summary line: correct=%v failed=%d", last.Correct, last.Failed)
			}
			if !strings.Contains(out.String(), "error_rate") {
				t.Error("error_rate is not printed")
			}
		})
	}
}

// TestBadArguments checks that the command rejects malformed arguments
// without printing a summary.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload", "--state", t.TempDir()},
		{"--workload", "cold-grid", "--trace", "2"},
		{"--workload", "cold-grid", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a non-zero exit and no output", args, code, out.String())
		}
	}
}
