// Package resultstore is the disk-backed, content-addressed result
// store of the sweep engine: every completed job is persisted under a
// canonical hash of its full configuration, so a repeated job — inside
// any sweep, submitted by any client, before or after a process
// restart — is served from disk instead of re-simulated.
//
// The store is keyed per job, not per job set. A sweep that shares
// even one job with an earlier sweep reuses that job's result, which
// is what makes a partial grid re-run cheap: only the jobs that
// actually changed simulate.
//
// Correctness rests on two contracts. The engine's determinism
// contract says a job's result is a pure function of its
// configuration, so serving a stored result is indistinguishable from
// re-running the job. The keying contract (Key) says two jobs hash
// equal exactly when that function's inputs are equal — spelling
// differences that cannot change the result (a scheme referenced by
// paper name versus its tree expression, a job's display label) are
// canonicalised away, while anything that can (seed, machine, caches,
// budget) is part of the hash. A third version, SchemaVersion, stamps
// the simulator's result semantics: entries written by a simulator
// whose outputs mean something else are misses, never wrong answers.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/sweep"
)

// SchemaVersion identifies the simulator's result semantics. Bump it
// when the meaning of a sim.Result field changes — when a counter
// starts counting something else, a stat changes units, or the
// simulated behaviour intentionally diverges — so every stored entry
// (and committed golden corpus) written under the old semantics is
// invalidated wholesale instead of being served as a wrong answer.
// Pure additions do not need a bump: old entries simply lack the new
// field, which decodes to its zero value.
const SchemaVersion = 1

// keyDoc is the canonical hash pre-image of one job. Field order is
// fixed by the struct (encoding/json marshals structs in declaration
// order), every semantically relevant field is present, and the
// scheme is reduced to its canonical spelling — so the hash does not
// depend on how the job was written down, only on what it simulates.
type keyDoc struct {
	Schema     int          `json:"schema"`
	Scheme     string       `json:"scheme"`
	Contexts   int          `json:"contexts"`
	Benchmarks []string     `json:"benchmarks"`
	Machine    isa.Machine  `json:"machine"`
	ICache     cache.Config `json:"icache"`
	DCache     cache.Config `json:"dcache"`
	Perfect    bool         `json:"perfect_memory"`
	Instr      int64        `json:"instr_limit"`
	Timeslice  int64        `json:"timeslice_cycles"`
	Seed       uint64       `json:"seed"`
}

// canonicalScheme reduces a job's merge control to one spelling: the
// canonical tree expression for tree-backed schemes (whether the job
// named a paper scheme, a tree expression or carried a typed Merge
// value), the baseline name for IMT/BMT, and "" for single-context
// multitasking. Labels do not survive, so a scheme hashes the same
// however it was referenced.
func canonicalScheme(j sweep.Job) (string, error) {
	s, err := j.MergeScheme()
	if err != nil {
		return "", err
	}
	if t := s.Tree(); t != nil {
		return t.String(), nil
	}
	return s.Name(), nil // baseline name, or "" for the zero Scheme
}

// Key returns the job's content hash: a SHA-256 over the canonical
// key document. Two jobs share a key exactly when the determinism
// contract guarantees identical results; see the package comment for
// what is canonicalised away and why SchemaVersion is hashed.
func Key(j sweep.Job) (string, error) {
	scheme, err := canonicalScheme(j)
	if err != nil {
		return "", fmt.Errorf("resultstore: key: %w", err)
	}
	doc := keyDoc{
		Schema:     SchemaVersion,
		Scheme:     scheme,
		Contexts:   j.EffectiveContexts(),
		Benchmarks: j.Benchmarks,
		Machine:    j.Machine,
		ICache:     j.ICache,
		DCache:     j.DCache,
		Perfect:    j.PerfectMemory,
		Instr:      j.InstrLimit,
		Timeslice:  j.TimesliceCycles,
		Seed:       j.Seed,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("resultstore: key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
