package resultstore

import (
	"encoding/json"
	"testing"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/sweep"
)

func baseJob() sweep.Job {
	return sweep.Job{
		Label:           "LLHH/2SC3",
		Scheme:          "2SC3",
		Benchmarks:      []string{"mcf", "blowfish", "x264", "idct"},
		Machine:         isa.Default(),
		ICache:          cache.DefaultConfig(),
		DCache:          cache.DefaultConfig(),
		InstrLimit:      20_000,
		TimesliceCycles: 1_000,
		Seed:            7,
	}
}

func keyOf(t *testing.T, j sweep.Job) string {
	t.Helper()
	k, err := Key(j)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestKeyCanonicalisesSchemeSpelling checks the keying contract's
// positive half: every spelling of the same merge control — the paper
// name, the canonical tree expression, a registered custom name, a
// typed Merge value — hashes identically, as does any display label.
func TestKeyCanonicalisesSchemeSpelling(t *testing.T) {
	base := baseJob()
	want := keyOf(t, base)

	sch, err := merge.Resolve("2SC3")
	if err != nil {
		t.Fatal(err)
	}
	expr := sch.Tree().String()

	// The canonical tree expression in the Scheme field.
	byExpr := base
	byExpr.Scheme = expr
	if got := keyOf(t, byExpr); got != want {
		t.Errorf("tree expression %q keys differently from the paper name: %s vs %s", expr, got, want)
	}

	// The typed Merge field, with no name at all.
	typed := base
	typed.Scheme = ""
	typed.Merge = sch
	if got := keyOf(t, typed); got != want {
		t.Errorf("typed scheme keys differently from the name: %s vs %s", got, want)
	}

	// Labels are presentation, not configuration.
	relabelled := base
	relabelled.Label = "something else entirely"
	if got := keyOf(t, relabelled); got != want {
		t.Errorf("label changed the key: %s vs %s", got, want)
	}
}

// TestKeySeparatesExperiments checks the negative half: every
// configuration field that can change the simulation changes the key.
func TestKeySeparatesExperiments(t *testing.T) {
	base := baseJob()
	want := keyOf(t, base)

	mutations := map[string]func(*sweep.Job){
		"scheme":     func(j *sweep.Job) { j.Scheme = "3SSS" },
		"baseline":   func(j *sweep.Job) { j.Scheme = "IMT" },
		"benchmarks": func(j *sweep.Job) { j.Benchmarks = []string{"mcf", "blowfish", "x264", "fft"} },
		// Thread order is simulation order (merge priority, scheduling),
		// so permuting benchmarks is a different experiment.
		"benchmark order": func(j *sweep.Job) {
			j.Benchmarks = []string{"blowfish", "mcf", "x264", "idct"}
		},
		"seed":           func(j *sweep.Job) { j.Seed = 8 },
		"machine":        func(j *sweep.Job) { j.Machine.IssueWidth = 8 },
		"icache":         func(j *sweep.Job) { j.ICache.Size *= 2 },
		"dcache":         func(j *sweep.Job) { j.DCache.MissPenalty++ },
		"perfect memory": func(j *sweep.Job) { j.PerfectMemory = true },
		"instr limit":    func(j *sweep.Job) { j.InstrLimit++ },
		"timeslice":      func(j *sweep.Job) { j.TimesliceCycles++ },
	}
	for name, mutate := range mutations {
		j := baseJob()
		mutate(&j)
		if got := keyOf(t, j); got == want {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
}

// TestKeyIgnoresGridAxisOrder checks that a grid expanded with its
// axes permuted covers the same key set: what is stored is the job,
// not its position in any particular sweep. (Shared seeding is used
// because per-job derived seeds are index-dependent by design — a
// reordered derived-seed grid is genuinely a different experiment.)
func TestKeyIgnoresGridAxisOrder(t *testing.T) {
	keySet := func(schemes, mixes []string) map[string]bool {
		g := sweep.Grid{Schemes: schemes, Mixes: mixes, InstrLimit: 5_000, Seed: 3, SharedSeed: true}
		jobs, err := g.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[string]bool, len(jobs))
		for _, j := range jobs {
			set[keyOf(t, j)] = true
		}
		if len(set) != len(jobs) {
			t.Fatalf("duplicate keys inside one grid expansion")
		}
		return set
	}
	a := keySet([]string{"2SC3", "3SSS", "C4"}, []string{"LLHH", "HHHH"})
	b := keySet([]string{"C4", "2SC3", "3SSS"}, []string{"HHHH", "LLHH"})
	if len(a) != len(b) {
		t.Fatalf("permuted grid expands to %d keys, want %d", len(b), len(a))
	}
	for k := range a {
		if !b[k] {
			t.Errorf("key %s missing from the permuted expansion", short(k))
		}
	}
}

// TestKeyIgnoresDocumentKeyOrder checks that a job decoded from JSON
// documents with permuted object keys (and an inlined merge spec
// instead of a bare name) hashes identically: the key is a function of
// the configuration, not of its serialisation.
func TestKeyIgnoresDocumentKeyOrder(t *testing.T) {
	docs := []string{
		`{"scheme":"2SC3","benchmarks":["mcf","fft"],"seed":7,"instr_limit":5000,"machine":{"clusters":4,"issue_width":4}}`,
		`{"machine":{"issue_width":4,"clusters":4},"instr_limit":5000,"seed":7,"benchmarks":["mcf","fft"],"scheme":"2SC3"}`,
		`{"seed":7,"merge":{"name":"2SC3","tree":"C3(S(T0,T1),T2,T3)"},"benchmarks":["mcf","fft"],"instr_limit":5000,"machine":{"clusters":4,"issue_width":4}}`,
	}
	var want string
	for i, doc := range docs {
		var j sweep.Job
		if err := json.Unmarshal([]byte(doc), &j); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		got := keyOf(t, j)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("doc %d keys to %s, doc 0 to %s", i, short(got), short(want))
		}
	}
}

// TestKeyRejectsUnresolvableSchemes checks that an unknown scheme is a
// keying error (surfacing before anything touches the disk), not a
// silent bucket.
func TestKeyRejectsUnresolvableSchemes(t *testing.T) {
	j := baseJob()
	j.Scheme = "no-such-scheme"
	if _, err := Key(j); err == nil {
		t.Error("unresolvable scheme produced a key")
	}
}
