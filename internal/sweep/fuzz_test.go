package sweep

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vliwmt/internal/refsim"
)

// fuzzBudget caps the instruction budget of a fuzzed job that
// validates, so every input simulates in milliseconds.
const fuzzBudget = 2_000

// FuzzJobValidate decodes a job document and checks Job.Validate's
// contract: a job that fails Validate carries the same error on its
// engine Result, with no Result, and a job that validates runs through
// the engine without error (at a budget of at most fuzzBudget) and
// matches refsim.Run. Validating and running compile each kernel once.
// Seeds are the jobs of both golden corpora, the wire fixture and one
// job per validation bound.
func FuzzJobValidate(f *testing.F) {
	corpora, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.json"))
	if err != nil || len(corpora) == 0 {
		f.Fatalf("no golden corpora (%v)", err)
	}
	for _, path := range corpora {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var corpus struct {
			Entries []struct {
				Job json.RawMessage `json:"job"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(b, &corpus); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		for _, e := range corpus.Entries {
			f.Add([]byte(e.Job))
		}
	}
	fixture, err := os.ReadFile(filepath.Join("..", "api", "testdata", "job.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	const machine = `"clusters":4,"issue_width":4,"muls":2,"branch_clusters":1,"latency_alu":1,"latency_mul":2,"latency_copy":1,"branch_penalty":2`
	for _, doc := range []string{
		`{"scheme":"2SC3","benchmarks":["mcf","blowfish","x264","idct"],"perfect_memory":true,"instr_limit":36028797018963968,"machine":{"mem_units":1,"latency_mem":2,` + machine + `}}`,
		`{"scheme":"2SC3","benchmarks":["mcf","blowfish","x264","idct"],"perfect_memory":true,"instr_limit":1000,"machine":{"mem_units":0,"latency_mem":2,` + machine + `}}`,
		`{"scheme":"2SC3","benchmarks":["mcf","blowfish","x264","idct"],"perfect_memory":true,"instr_limit":1000,"machine":{"mem_units":1,"latency_mem":10000000,` + machine + `}}`,
	} {
		f.Add([]byte(doc))
	}

	f.Fuzz(func(t *testing.T, doc []byte) {
		var j Job
		if err := json.Unmarshal(doc, &j); err != nil {
			return
		}
		cc := NewCompileCache()
		if verr := j.Validate(cc); verr != nil {
			results, _ := New(1).Run(context.Background(), []Job{j})
			if r := results[0]; r.Res != nil || r.Err == nil || r.Err.Error() != verr.Error() {
				t.Fatalf("Validate says %q, the engine returned (%v, %v)", verr, r.Res, r.Err)
			}
			return
		}
		j.InstrLimit = min(j.InstrLimit, fuzzBudget)
		e := New(1)
		e.SetCache(cc)
		results, _ := e.Run(context.Background(), []Job{j})
		r := results[0]
		if r.Err != nil {
			t.Fatalf("a job that validates failed in the engine: %v", r.Err)
		}
		kernels := map[string]bool{}
		for _, b := range j.Benchmarks {
			kernels[b] = true
		}
		if compiles, _ := cc.Stats(); compiles != int64(len(kernels)) {
			t.Errorf("validate + run compiled %d times for %d kernels", compiles, len(kernels))
		}
		cfg, tasks, err := j.lower(cc)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refsim.Run(cfg, tasks)
		if err != nil {
			t.Fatalf("refsim rejected a job that validates: %v", err)
		}
		if !reflect.DeepEqual(r.Res, ref) {
			t.Fatalf("engine result diverges from refsim:\n engine: %+v\n refsim: %+v", r.Res, ref)
		}
	})
}
