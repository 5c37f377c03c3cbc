package sweep

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/sim"
)

// TestJobValidateMatchesSim pins the one-validation-function contract:
// every config defect the simulator rejects is rejected up front by
// Job.Validate with the simulator's own message and before any
// compile, so a job that validates never fails in sim.Run, and the
// engine reports the defect on the job without simulating it.
func TestJobValidateMatchesSim(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	base := jobs[len(jobs)-1] // a cached 4-context job
	cases := []struct {
		name   string
		mutate func(j *Job)
	}{
		{"instr-limit-0", func(j *Job) { j.InstrLimit = 0 }},
		{"instr-limit-overflows-cycle-bound", func(j *Job) { j.InstrLimit = 1 << 55 }},
		{"non-power-of-two-cache", func(j *Job) { j.DCache.Size = 3 * j.DCache.LineSize * j.DCache.Ways }},
		{"miss-penalty-too-long", func(j *Job) { j.DCache.MissPenalty = 1 << 40 }},
		{"invalid-machine", func(j *Job) { j.Machine.BranchPenalty = -1 }},
		{"mem-latency-too-long", func(j *Job) { j.Machine.LatencyMem = 10_000_000 }},
		{"contexts-scheme-mismatch", func(j *Job) { j.Scheme, j.Contexts = "2SC3", 3 }},
	}
	var tasks []sim.Task
	for _, name := range base.Benchmarks {
		// Compiled for the valid machine: config validation runs
		// before any task is inspected.
		p, err := NewCompileCache().Get(name, isa.Default())
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, sim.Task{Name: name, Prog: p})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := base
			tc.mutate(&j)
			cc := NewCompileCache()
			verr := j.Validate(cc)
			if verr == nil {
				t.Fatal("Job.Validate accepted the job")
			}
			if compiles, _ := cc.Stats(); compiles != 0 {
				t.Errorf("Job.Validate compiled %d kernels before rejecting the config", compiles)
			}
			_, rerr := sim.Run(j.config(), tasks)
			if rerr == nil {
				t.Fatal("sim.Run accepted the job's config")
			}
			if !strings.Contains(verr.Error(), rerr.Error()) {
				t.Errorf("Job.Validate says %q, sim.Run says %q", verr, rerr)
			}
			results, _ := New(1).Run(context.Background(), []Job{j})
			if r := results[0]; r.Res != nil || r.Err == nil || r.Err.Error() != verr.Error() {
				t.Errorf("engine result = (%v, %v), want the validation error %q", r.Res, r.Err, verr)
			}
		})
	}
}

// TestJobValidateCompiles: a machine that validates but cannot host a
// kernel (no memory unit, multiplier or branch unit) fails Job.Validate
// with the compiler's error, and the engine reports that same error
// with no result. Validation compiles through the cache the job runs
// on, so validating and then running compiles each kernel once.
func TestJobValidateCompiles(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	base := jobs[len(jobs)-1]
	for _, tc := range []struct {
		name   string
		mutate func(m *isa.Machine)
	}{
		{"no-mem-units", func(m *isa.Machine) { m.MemUnits = 0 }},
		{"no-muls", func(m *isa.Machine) { m.Muls = 0 }},
		{"no-branch-clusters", func(m *isa.Machine) { m.BranchClusters = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := base
			tc.mutate(&j.Machine)
			if err := j.Machine.Validate(); err != nil {
				t.Fatalf("the machine must pass isa validation: %v", err)
			}
			cc := NewCompileCache()
			verr := j.Validate(cc)
			if verr == nil || !strings.Contains(verr.Error(), "compile ") {
				t.Fatalf("Job.Validate = %v, want a compile error", verr)
			}
			e := New(1)
			e.SetCache(cc)
			results, _ := e.Run(context.Background(), []Job{j})
			if r := results[0]; r.Res != nil || r.Err == nil || r.Err.Error() != verr.Error() {
				t.Errorf("engine result = (%v, %v), want the validation error %q", r.Res, r.Err, verr)
			}
		})
	}

	cc := NewCompileCache()
	if err := base.Validate(cc); err != nil {
		t.Fatal(err)
	}
	e := New(1)
	e.SetCache(cc)
	if _, err := e.Run(context.Background(), []Job{base}); err != nil {
		t.Fatal(err)
	}
	kernels := map[string]bool{}
	for _, b := range base.Benchmarks {
		kernels[b] = true
	}
	if compiles, _ := cc.Stats(); compiles != int64(len(kernels)) {
		t.Errorf("validate + run compiled %d times for %d kernels", compiles, len(kernels))
	}
}

// TestInvalidJobIsolated runs one invalid job among 16: only that job
// errors, and the 15 good jobs are bit-identical to the 15 run alone.
func TestInvalidJobIsolated(t *testing.T) {
	jobs, err := (Grid{Schemes: merge.PaperSchemes4(), Mixes: []string{"LLHH"}, InstrLimit: 5_000, Seed: 3}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 16 {
		t.Fatalf("got %d jobs, want 16", len(jobs))
	}
	const bad = 5
	mixed := append([]Job(nil), jobs...)
	mixed[bad].InstrLimit = 0
	got, _ := New(1).Run(context.Background(), mixed)

	good := append(append([]Job(nil), jobs[:bad]...), jobs[bad+1:]...)
	want, err := New(1).Run(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	if got[bad].Err == nil || got[bad].Res != nil {
		t.Fatalf("invalid job: result (%v, %v), want an error only", got[bad].Res, got[bad].Err)
	}
	for i, k := 0, 0; i < len(got); i++ {
		if i == bad {
			continue
		}
		if got[i].Err != nil {
			t.Errorf("job %d (%s) errored beside the invalid job: %v", i, got[i].Job.Describe(), got[i].Err)
		} else if !reflect.DeepEqual(got[i].Res, want[k].Res) {
			t.Errorf("job %d (%s) differs from the good jobs run alone\n mixed: %+v\n alone: %+v",
				i, got[i].Job.Describe(), got[i].Res, want[k].Res)
		}
		k++
	}
}
