// Package api defines the stable wire format of the sweep service: the
// versioned job and result envelopes and the request/response
// documents of the HTTP endpoints. The result store in
// internal/resultstore reuses the same encoding.
//
// Machine, cache, job, grid and simulation-result values travel in
// their internal types (isa.Machine, cache.Config, sweep.Job,
// sweep.Grid, sim.Result), whose json tags are the wire format; a
// job's merge control travels in merge.Scheme's JSON form. The wiretag
// analyzer requires every exported field of a tagged struct to carry a
// tag, so a new field cannot ship under its Go name. Sweep results
// keep a wire form of their own, which flattens the error and the
// duration.
package api

import (
	"errors"
	"math"
	"time"

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
//	2: jobs may carry a "merge" member inlining a first-class merge
//	   scheme as a canonical tree expression: {"name":...,"tree":...},
//	   now merge.Scheme's JSON form, with the same bytes
//	3: results may carry a "cached" flag (served from the persistent
//	   result store), sweep statuses a "cache_hits" count, and the
//	   server a /v1/store document. Later additions
//	   within 3 (all optional, omitted when empty, version-1-semantics
//	   when absent, so no bump): sweep statuses may carry an "errors"
//	   count and a terminal "summary" roll-up, NDJSON
//	   events an "err" string for failed jobs, the server a
//	   /v1/healthz document (Health), and the terminal NDJSON event a
//	   "status" carrying the final SweepStatus. Results from older
//	   servers may carry "worker" and "shard" attribution; decoders
//	   ignore both fields. Removed within 3: the request's "tag"
//	   (decoded, never read; decoders ignore it), the /v1/store
//	   document, the GET /v1/sweeps/{id} status route (the
//	   terminal event's "status", now required, replaces it), the
//	   status's "cache_hits", "errors" and "summary" (sweep.Summarize
//	   over the results replaces them) and the health document's
//	   "store" block (the store_* counters on /metrics replace it);
//	   decoders ignore all four members
const Version = 3

// Job is sweep.Job, which is its own wire form. The alias and the
// JobFrom identity remain for perfbench/trace.go, which builds
// requests through them until the benchmark next changes.
type Job = sweep.Job

// JobFrom returns j unchanged; see Job.
func JobFrom(j sweep.Job) Job { return j }

// Result is the wire form of sweep.Result. ElapsedSec is the only
// wall-clock (non-deterministic) field; Err flattens the job's error
// to its message, so error identity does not survive the wire. Cached
// (wire version 3) reports the result was served from the persistent
// result store rather than simulated.
type Result struct {
	Index      int         `json:"index"`
	Job        sweep.Job   `json:"job"`
	Sim        *sim.Result `json:"sim,omitempty"`
	Err        string      `json:"err,omitempty"`
	ElapsedSec float64     `json:"elapsed_sec"`
	Cached     bool        `json:"cached,omitempty"`
}

// ResultFrom converts an internal sweep result to its wire form. Sim
// shares r.Res rather than copying it: a wire result is only encoded,
// and a sweep result is not modified once its job has completed.
func ResultFrom(r sweep.Result) Result {
	out := Result{Index: r.Index, Job: r.Job, Sim: r.Res, ElapsedSec: r.Elapsed.Seconds(),
		Cached: r.Cached}
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
// takes over r.Sim. The elapsed time is rounded to the nearest
// nanosecond, which recovers the sender's exact duration (truncating
// loses a nanosecond on some values), so a result served from a store
// replays the same time on both sides of the wire.
func (r Result) Sweep() sweep.Result {
	out := sweep.Result{
		Index:   r.Index,
		Job:     r.Job,
		Elapsed: time.Duration(math.Round(r.ElapsedSec * float64(time.Second))),
		Cached:  r.Cached,
		Res:     r.Sim,
	}
	if r.Err != "" {
		out.Err = errors.New(r.Err)
	}
	return out
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
