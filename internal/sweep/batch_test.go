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

// TestBatchingDeterministic pins the engine-level half of the batching
// contract: at every batch setting (off, auto, odd explicit caps) and
// worker count the sweep returns the same results in the same job
// order. Unit formation is a dispatch detail, never a semantic one.
func TestBatchingDeterministic(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, batch := range []int{1, 0, 3, 100} {
		for _, workers := range []int{1, 4} {
			results, err := func() ([]Result, error) {
				e := New(workers)
				e.SetBatch(batch)
				return e.Run(context.Background(), jobs)
			}()
			if err != nil {
				t.Fatalf("batch=%d workers=%d: %v", batch, workers, err)
			}
			for i, r := range results {
				if r.Index != i {
					t.Fatalf("batch=%d workers=%d: results reordered: index %d at position %d", batch, workers, r.Index, i)
				}
			}
			got := fingerprint(t, results)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("batch=%d workers=%d diverged from the unbatched sweep:\n%s\nvs:\n%s",
					batch, workers, got, want)
			}
		}
	}
}

// TestBatchingProgressMonotonic verifies the ProgressFunc contract
// survives batched dispatch: done increments by exactly one per call,
// reaches the total, and every reported result is final (non-nil or
// errored), even though a whole unit completes before its jobs report.
func TestBatchingProgressMonotonic(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	e := New(4)
	e.SetBatch(0)
	var seq []int
	e.SetProgress(func(done, total int, r Result) {
		seq = append(seq, done)
		if total != len(jobs) {
			t.Errorf("progress total = %d, want %d", total, len(jobs))
		}
		if r.Res == nil && r.Err == nil {
			t.Errorf("progress delivered a job with neither result nor error: %s", r.Job.Describe())
		}
	})
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(jobs) {
		t.Fatalf("progress fired %d times for %d jobs", len(seq), len(jobs))
	}
	for i, d := range seq {
		if d != i+1 {
			t.Fatalf("progress done sequence not monotonic: got %v", seq)
		}
	}
}

// TestBatchUnitsShapeAndCap checks unit formation directly: units
// partition the index space, each unit is shape-homogeneous (same
// machine and benchmark list), units respect the cap, and batch=1
// degenerates to singleton units.
func TestBatchUnitsShapeAndCap(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{0, 1, 2, 3} {
		e := New(1)
		e.SetBatch(batch)
		units := e.batchUnits(jobs)
		cap := batch
		if cap <= 0 {
			cap = autoBatchCap
		}
		seen := make([]bool, len(jobs))
		for _, u := range units {
			if len(u) == 0 || len(u) > cap {
				t.Fatalf("batch=%d: unit size %d outside (0,%d]", batch, len(u), cap)
			}
			key := shapeKey(jobs[u[0]])
			for _, i := range u {
				if seen[i] {
					t.Fatalf("batch=%d: job %d dispatched twice", batch, i)
				}
				seen[i] = true
				if shapeKey(jobs[i]) != key {
					t.Fatalf("batch=%d: unit mixes shapes: %q vs %q", batch, shapeKey(jobs[i]), key)
				}
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("batch=%d: job %d never dispatched", batch, i)
			}
		}
		if batch == 1 && len(units) != len(jobs) {
			t.Fatalf("batch=1 must yield singleton units, got %d units for %d jobs", len(units), len(jobs))
		}
	}
}

// TestJobValidateMatchesSim pins the one-validation-function contract:
// every config defect the simulator rejects is rejected up front by
// Job.Validate with the simulator's own message, so a job that
// validates never fails at batch entry, and the engine reports the
// defect on the job without simulating it.
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
		{"non-power-of-two-cache", func(j *Job) { j.DCache.Size = 3 * j.DCache.LineSize * j.DCache.Ways }},
		{"invalid-machine", func(j *Job) { j.Machine.BranchPenalty = -1 }},
		{"contexts-scheme-mismatch", func(j *Job) { j.Scheme, j.Contexts = "2SC3", 3 }},
	}
	cc := NewCompileCache()
	var tasks []sim.Task
	for _, name := range base.Benchmarks {
		// Compiled for the valid machine: config validation runs
		// before any task is inspected.
		p, err := cc.Get(name, isa.Default())
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, sim.Task{Name: name, Prog: p})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := base
			tc.mutate(&j)
			verr := j.Validate()
			if verr == nil {
				t.Fatal("Job.Validate accepted the job")
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

// TestUnitIsolatesInvalidJob runs one invalid job inside a 16-lane
// unit: only that job errors, and the 15 good lanes are bit-identical
// to a batch of the 15 alone.
func TestUnitIsolatesInvalidJob(t *testing.T) {
	jobs, err := (Grid{Schemes: merge.PaperSchemes4(), Mixes: []string{"LLHH"}, InstrLimit: 5_000, Seed: 3}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 16 {
		t.Fatalf("got %d jobs, want 16", len(jobs))
	}
	const bad = 5
	mixed := append([]Job(nil), jobs...)
	mixed[bad].InstrLimit = 0 // same shape, so it shares the unit
	e := New(1)
	if units := e.batchUnits(mixed); len(units) != 1 {
		t.Fatalf("jobs form %d units, want one 16-lane unit", len(units))
	}
	got, _ := e.Run(context.Background(), mixed)

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
			t.Errorf("job %d (%s) differs from the batch of good jobs alone\n mixed: %+v\n alone: %+v",
				i, got[i].Job.Describe(), got[i].Res, want[k].Res)
		}
		k++
	}
}
