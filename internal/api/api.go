// Package api defines the stable wire format of the sweep service: the
// versioned job and result envelopes and the request/response
// documents of the HTTP endpoints. The result store in
// internal/resultstore reuses the same encoding.
//
// Machine, cache, grid and simulation-result values travel in their
// internal types (isa.Machine, cache.Config, sweep.Grid, sim.Result),
// whose json tags are the wire format; the wiretag analyzer requires
// every exported field of a tagged struct to carry a tag, so a new
// field cannot ship under its Go name. Jobs, sweep results and
// summaries keep wire forms of their own: a job's merge control
// travels as a SchemeSpec, and a result or summary flattens its error
// and durations.
package api

import (
	"errors"
	"fmt"
	"time"

	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
)

// Version is the wire-format version. Decoders accept documents whose
// version field is between 1 and this value, or zero (a pre-versioning
// document is read as version 1); anything newer is rejected so
// incompatible future formats fail loudly instead of silently
// mis-decoding.
//
// Version history:
//
//	1: initial format (machine, cache, job, grid, result DTOs)
//	2: jobs may carry a SchemeSpec ("merge") inlining a first-class
//	   merge scheme as a canonical tree expression
//	3: results may carry a "cached" flag (served from the persistent
//	   result store), sweep statuses a "cache_hits" count, and the
//	   server a /v1/store document (StoreStatus). Later additions
//	   within 3 (all optional, omitted when empty, version-1-semantics
//	   when absent, so no bump): sweep statuses may carry an "errors"
//	   count and a terminal "summary" roll-up (SweepSummary), NDJSON
//	   events an "err" string for failed jobs, results a "worker" and
//	   "shard" attribution (set by the distributed sweep fabric),
//	   the server a /v1/healthz document (Health), and the terminal
//	   NDJSON event a "status" carrying the final SweepStatus
const Version = 3

// SchemeSpec is the wire form of a first-class merge scheme
// (merge.Scheme), introduced in wire version 2. Tree is the canonical
// grammar emitted by merge.Tree.String (e.g. "C(S(T0,T1),T2,T3)");
// it is empty for the IMT/BMT baselines, which Name identifies. A
// spec with a tree is self-contained: the receiver rebuilds the exact
// scheme without consulting its own registry, which is what makes
// custom schemes submitted remotely bit-identical to in-process runs.
type SchemeSpec struct {
	Name string `json:"name,omitempty"`
	Tree string `json:"tree,omitempty"`
}

// SchemeSpecFrom converts a first-class scheme to its wire form; the
// zero Scheme converts to nil.
func SchemeSpecFrom(s merge.Scheme) *SchemeSpec {
	if s.IsZero() {
		return nil
	}
	sp := &SchemeSpec{Name: s.Name()}
	if t := s.Tree(); t != nil {
		sp.Tree = t.String()
	}
	return sp
}

// Scheme converts the wire form back to a first-class scheme: the
// tree expression when present (relabelled with Name), else Name
// resolved as usual (baselines, paper names, local registry).
func (s SchemeSpec) Scheme() (merge.Scheme, error) {
	if s.Tree != "" {
		t, err := merge.ParseTreeExpr(s.Tree)
		if err != nil {
			return merge.Scheme{}, fmt.Errorf("api: scheme spec: %w", err)
		}
		sch, err := merge.FromTree(t)
		if err != nil {
			return merge.Scheme{}, fmt.Errorf("api: scheme spec: %w", err)
		}
		return sch.WithName(s.Name), nil
	}
	if s.Name == "" {
		return merge.Scheme{}, fmt.Errorf("api: empty scheme spec")
	}
	sch, err := merge.Resolve(s.Name)
	if err != nil {
		return merge.Scheme{}, fmt.Errorf("api: scheme spec: %w", err)
	}
	return sch, nil
}

// Job is the wire form of sweep.Job; its merge control travels as a
// SchemeSpec.
type Job struct {
	Label           string       `json:"label,omitempty"`
	Scheme          string       `json:"scheme,omitempty"`
	Merge           *SchemeSpec  `json:"merge,omitempty"`
	Benchmarks      []string     `json:"benchmarks,omitempty"`
	Contexts        int          `json:"contexts,omitempty"`
	Machine         isa.Machine  `json:"machine,omitempty"`
	ICache          cache.Config `json:"icache,omitempty"`
	DCache          cache.Config `json:"dcache,omitempty"`
	PerfectMemory   bool         `json:"perfect_memory,omitempty"`
	InstrLimit      int64        `json:"instr_limit,omitempty"`
	TimesliceCycles int64        `json:"timeslice_cycles,omitempty"`
	Seed            uint64       `json:"seed,omitempty"`
}

// jobSchemeSpec inlines the job's merge control for the wire: the
// typed field when set, else a registered custom name's tree (a
// remote server does not share this process's registry). Paper names
// and baselines travel as the name alone.
func jobSchemeSpec(j sweep.Job) *SchemeSpec {
	if !j.Merge.IsZero() {
		return SchemeSpecFrom(j.Merge)
	}
	if s, ok := merge.Lookup(j.Scheme); ok {
		return SchemeSpecFrom(s)
	}
	return nil
}

// JobFrom converts an internal job to its wire form.
func JobFrom(j sweep.Job) Job {
	return Job{
		Label:           j.Label,
		Scheme:          j.Scheme,
		Merge:           jobSchemeSpec(j),
		Benchmarks:      append([]string(nil), j.Benchmarks...),
		Contexts:        j.Contexts,
		Machine:         j.Machine,
		ICache:          j.ICache,
		DCache:          j.DCache,
		PerfectMemory:   j.PerfectMemory,
		InstrLimit:      j.InstrLimit,
		TimesliceCycles: j.TimesliceCycles,
		Seed:            j.Seed,
	}
}

// Sweep converts the wire form back to an internal job. A malformed
// scheme spec is an error; a job without one converts scheme-name
// verbatim, exactly as in wire version 1.
func (j Job) Sweep() (sweep.Job, error) {
	out := sweep.Job{
		Label:           j.Label,
		Scheme:          j.Scheme,
		Benchmarks:      append([]string(nil), j.Benchmarks...),
		Contexts:        j.Contexts,
		Machine:         j.Machine,
		ICache:          j.ICache,
		DCache:          j.DCache,
		PerfectMemory:   j.PerfectMemory,
		InstrLimit:      j.InstrLimit,
		TimesliceCycles: j.TimesliceCycles,
		Seed:            j.Seed,
	}
	if j.Merge != nil {
		s, err := j.Merge.Scheme()
		if err != nil {
			return out, fmt.Errorf("api: job %s: %w", out.Describe(), err)
		}
		out.Merge = s
	}
	return out, nil
}

// Result is the wire form of sweep.Result. ElapsedSec is the only
// wall-clock (non-deterministic) field; Err flattens the job's error
// to its message, so error identity does not survive the wire. Cached
// (wire version 3) reports the result was served from the persistent
// result store rather than simulated. Worker and Shard (additive
// within version 3) attribute a result computed by the distributed
// sweep fabric — the worker address that simulated the job and the
// 1-based shard it travelled in; absent for local, unsharded runs.
type Result struct {
	Index      int         `json:"index"`
	Job        Job         `json:"job"`
	Sim        *sim.Result `json:"sim,omitempty"`
	Err        string      `json:"err,omitempty"`
	ElapsedSec float64     `json:"elapsed_sec"`
	Cached     bool        `json:"cached,omitempty"`
	Worker     string      `json:"worker,omitempty"`
	Shard      int         `json:"shard,omitempty"`
}

// ResultFrom converts an internal sweep result to its wire form. Sim
// shares r.Res rather than copying it: a wire result is only encoded,
// and a sweep result is not modified once its job has completed.
func ResultFrom(r sweep.Result) Result {
	out := Result{Index: r.Index, Job: JobFrom(r.Job), Sim: r.Res, ElapsedSec: r.Elapsed.Seconds(),
		Cached: r.Cached, Worker: r.Worker, Shard: r.Shard}
	if r.Err != nil {
		out.Err = r.Err.Error()
	}
	return out
}

// SimResultFrom returns r unchanged: sim.Result is its own wire form.
// The identity remains for perfbench/bench.go, which encodes results
// through it until the benchmark next changes.
func SimResultFrom(r sim.Result) sim.Result { return r }

// Sweep converts the wire form back to an internal sweep result, which
// takes over r.Sim. The job inside a result is informational, so a
// malformed scheme spec surfaces on the result's Err rather than
// failing the whole decode.
func (r Result) Sweep() sweep.Result {
	job, jerr := r.Job.Sweep()
	out := sweep.Result{
		Index:   r.Index,
		Job:     job,
		Elapsed: time.Duration(r.ElapsedSec * float64(time.Second)),
		Cached:  r.Cached,
		Worker:  r.Worker,
		Shard:   r.Shard,
		Res:     r.Sim,
	}
	if r.Err != "" {
		out.Err = errors.New(r.Err)
	} else if jerr != nil {
		out.Err = jerr
	}
	return out
}

// SummaryFrom converts a sweep lifecycle summary to its wire form; a
// zero summary (no jobs) converts to nil so it is omitted from status
// documents of empty or never-run sweeps.
func SummaryFrom(s sweep.Summary) *SweepSummary {
	if s.Jobs == 0 {
		return nil
	}
	return &SweepSummary{
		Jobs:          s.Jobs,
		Errors:        s.Errors,
		CacheHits:     s.CacheHits,
		CacheHitRatio: s.CacheHitRatio(),
		WallSec:       s.Wall.Seconds(),
		P50Sec:        s.P50.Seconds(),
		P99Sec:        s.P99.Seconds(),
		JobsPerSec:    s.JobsPerSec,
	}
}

// Summary converts the wire form back to an internal sweep summary.
func (s SweepSummary) Summary() sweep.Summary {
	return sweep.Summary{
		Jobs:       s.Jobs,
		Errors:     s.Errors,
		CacheHits:  s.CacheHits,
		Wall:       time.Duration(s.WallSec * float64(time.Second)),
		P50:        time.Duration(s.P50Sec * float64(time.Second)),
		P99:        time.Duration(s.P99Sec * float64(time.Second)),
		JobsPerSec: s.JobsPerSec,
	}
}

// ResultsFrom converts a result slice to its wire form.
func ResultsFrom(rs []sweep.Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = ResultFrom(r)
	}
	return out
}

// SweepResults converts a wire result slice back to internal results.
func SweepResults(rs []Result) []sweep.Result {
	out := make([]sweep.Result, len(rs))
	for i, r := range rs {
		out[i] = r.Sweep()
	}
	return out
}
