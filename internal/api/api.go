// Package api defines the stable wire format of the sweep service: the
// versioned JSON DTOs for machine, cache, job, grid and result values,
// the request/response envelopes of the HTTP endpoints, and a
// content-addressed on-disk result store that reuses the same encoding.
//
// The DTO types deliberately mirror the internal configuration structs
// field by field but own their JSON tags, so the wire format cannot
// drift when an internal struct is refactored. Zero-valued DTO fields
// convert to zero-valued internal fields, which means a sparse grid
// document like {} expands through sweep.Grid.Jobs with exactly the
// same defaulting as an in-process zero-value Grid.
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

// Machine is the wire form of isa.Machine.
type Machine struct {
	Clusters       int `json:"clusters,omitempty"`
	IssueWidth     int `json:"issue_width,omitempty"`
	Muls           int `json:"muls,omitempty"`
	MemUnits       int `json:"mem_units,omitempty"`
	BranchClusters int `json:"branch_clusters,omitempty"`
	LatencyALU     int `json:"latency_alu,omitempty"`
	LatencyMul     int `json:"latency_mul,omitempty"`
	LatencyMem     int `json:"latency_mem,omitempty"`
	LatencyCopy    int `json:"latency_copy,omitempty"`
	BranchPenalty  int `json:"branch_penalty,omitempty"`
}

// MachineFrom converts an internal machine description to its wire form.
func MachineFrom(m isa.Machine) Machine {
	return Machine{
		Clusters:       m.Clusters,
		IssueWidth:     m.IssueWidth,
		Muls:           m.Muls,
		MemUnits:       m.MemUnits,
		BranchClusters: m.BranchClusters,
		LatencyALU:     m.LatencyALU,
		LatencyMul:     m.LatencyMul,
		LatencyMem:     m.LatencyMem,
		LatencyCopy:    m.LatencyCopy,
		BranchPenalty:  m.BranchPenalty,
	}
}

// ISA converts the wire form back to the internal machine description.
func (m Machine) ISA() isa.Machine {
	return isa.Machine{
		Clusters:       m.Clusters,
		IssueWidth:     m.IssueWidth,
		Muls:           m.Muls,
		MemUnits:       m.MemUnits,
		BranchClusters: m.BranchClusters,
		LatencyALU:     m.LatencyALU,
		LatencyMul:     m.LatencyMul,
		LatencyMem:     m.LatencyMem,
		LatencyCopy:    m.LatencyCopy,
		BranchPenalty:  m.BranchPenalty,
	}
}

// CacheConfig is the wire form of cache.Config.
type CacheConfig struct {
	Size        int `json:"size,omitempty"`
	LineSize    int `json:"line_size,omitempty"`
	Ways        int `json:"ways,omitempty"`
	MissPenalty int `json:"miss_penalty,omitempty"`
}

// CacheConfigFrom converts an internal cache configuration to its wire form.
func CacheConfigFrom(c cache.Config) CacheConfig {
	return CacheConfig{Size: c.Size, LineSize: c.LineSize, Ways: c.Ways, MissPenalty: c.MissPenalty}
}

// Config converts the wire form back to the internal cache configuration.
func (c CacheConfig) Config() cache.Config {
	return cache.Config{Size: c.Size, LineSize: c.LineSize, Ways: c.Ways, MissPenalty: c.MissPenalty}
}

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

// Job is the wire form of sweep.Job.
type Job struct {
	Label           string      `json:"label,omitempty"`
	Scheme          string      `json:"scheme,omitempty"`
	Merge           *SchemeSpec `json:"merge,omitempty"`
	Benchmarks      []string    `json:"benchmarks,omitempty"`
	Contexts        int         `json:"contexts,omitempty"`
	Machine         Machine     `json:"machine,omitempty"`
	ICache          CacheConfig `json:"icache,omitempty"`
	DCache          CacheConfig `json:"dcache,omitempty"`
	PerfectMemory   bool        `json:"perfect_memory,omitempty"`
	InstrLimit      int64       `json:"instr_limit,omitempty"`
	TimesliceCycles int64       `json:"timeslice_cycles,omitempty"`
	Seed            uint64      `json:"seed,omitempty"`
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
		Machine:         MachineFrom(j.Machine),
		ICache:          CacheConfigFrom(j.ICache),
		DCache:          CacheConfigFrom(j.DCache),
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
		Machine:         j.Machine.ISA(),
		ICache:          j.ICache.Config(),
		DCache:          j.DCache.Config(),
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

// Grid is the wire form of sweep.Grid. A zero-valued (or entirely
// omitted) field defaults exactly as the in-process Grid does when
// expanded with Jobs: paper machine and caches, 300k-instruction
// budget, seed 1.
type Grid struct {
	Schemes         []string    `json:"schemes,omitempty"`
	Mixes           []string    `json:"mixes,omitempty"`
	Machine         Machine     `json:"machine,omitempty"`
	ICache          CacheConfig `json:"icache,omitempty"`
	DCache          CacheConfig `json:"dcache,omitempty"`
	InstrLimit      int64       `json:"instr_limit,omitempty"`
	TimesliceCycles int64       `json:"timeslice_cycles,omitempty"`
	Seed            uint64      `json:"seed,omitempty"`
	SharedSeed      bool        `json:"shared_seed,omitempty"`
}

// GridFrom converts an internal grid to its wire form.
func GridFrom(g sweep.Grid) Grid {
	return Grid{
		Schemes:         append([]string(nil), g.Schemes...),
		Mixes:           append([]string(nil), g.Mixes...),
		Machine:         MachineFrom(g.Machine),
		ICache:          CacheConfigFrom(g.ICache),
		DCache:          CacheConfigFrom(g.DCache),
		InstrLimit:      g.InstrLimit,
		TimesliceCycles: g.TimesliceCycles,
		Seed:            g.Seed,
		SharedSeed:      g.SharedSeed,
	}
}

// Sweep converts the wire form back to an internal grid.
func (g Grid) Sweep() sweep.Grid {
	return sweep.Grid{
		Schemes:         append([]string(nil), g.Schemes...),
		Mixes:           append([]string(nil), g.Mixes...),
		Machine:         g.Machine.ISA(),
		ICache:          g.ICache.Config(),
		DCache:          g.DCache.Config(),
		InstrLimit:      g.InstrLimit,
		TimesliceCycles: g.TimesliceCycles,
		Seed:            g.Seed,
		SharedSeed:      g.SharedSeed,
	}
}

// ThreadStats is the wire form of sim.ThreadStats.
type ThreadStats struct {
	Name            string `json:"name,omitempty"`
	Instrs          int64  `json:"instrs,omitempty"`
	Ops             int64  `json:"ops,omitempty"`
	ScheduledCycles int64  `json:"scheduled_cycles,omitempty"`
	ConflictCycles  int64  `json:"conflict_cycles,omitempty"`
	StallMem        int64  `json:"stall_mem,omitempty"`
	StallFetch      int64  `json:"stall_fetch,omitempty"`
	StallBranch     int64  `json:"stall_branch,omitempty"`
}

// CacheStats is the wire form of cache.Stats.
type CacheStats struct {
	Accesses   int64 `json:"accesses,omitempty"`
	Misses     int64 `json:"misses,omitempty"`
	Writebacks int64 `json:"writebacks,omitempty"`
}

// SimResult is the wire form of sim.Result. Every deterministic field
// round-trips exactly, so a result fetched over the wire is
// bit-identical to the in-process one.
type SimResult struct {
	Cycles      int64         `json:"cycles"`
	Instrs      int64         `json:"instrs"`
	Ops         int64         `json:"ops"`
	IPC         float64       `json:"ipc"`
	MergeHist   []int64       `json:"merge_hist,omitempty"`
	Threads     []ThreadStats `json:"threads,omitempty"`
	ICache      CacheStats    `json:"icache,omitempty"`
	DCache      CacheStats    `json:"dcache,omitempty"`
	IssueWidth  int           `json:"issue_width,omitempty"`
	EmptyCycles int64         `json:"empty_cycles,omitempty"`
	TimedOut    bool          `json:"timed_out,omitempty"`
}

// SimResultFrom converts an internal simulation result to its wire form.
func SimResultFrom(r sim.Result) SimResult {
	threads := make([]ThreadStats, len(r.Threads))
	for i, t := range r.Threads {
		threads[i] = ThreadStats{
			Name:            t.Name,
			Instrs:          t.Instrs,
			Ops:             t.Ops,
			ScheduledCycles: t.ScheduledCycles,
			ConflictCycles:  t.ConflictCycles,
			StallMem:        t.StallMem,
			StallFetch:      t.StallFetch,
			StallBranch:     t.StallBranch,
		}
	}
	return SimResult{
		Cycles:      r.Cycles,
		Instrs:      r.Instrs,
		Ops:         r.Ops,
		IPC:         r.IPC,
		MergeHist:   append([]int64(nil), r.MergeHist...),
		Threads:     threads,
		ICache:      CacheStats{Accesses: r.ICache.Accesses, Misses: r.ICache.Misses, Writebacks: r.ICache.Writebacks},
		DCache:      CacheStats{Accesses: r.DCache.Accesses, Misses: r.DCache.Misses, Writebacks: r.DCache.Writebacks},
		IssueWidth:  r.IssueWidth,
		EmptyCycles: r.EmptyCycles,
		TimedOut:    r.TimedOut,
	}
}

// Sim converts the wire form back to an internal simulation result.
func (r SimResult) Sim() sim.Result {
	threads := make([]sim.ThreadStats, len(r.Threads))
	for i, t := range r.Threads {
		threads[i] = sim.ThreadStats{
			Name:            t.Name,
			Instrs:          t.Instrs,
			Ops:             t.Ops,
			ScheduledCycles: t.ScheduledCycles,
			ConflictCycles:  t.ConflictCycles,
			StallMem:        t.StallMem,
			StallFetch:      t.StallFetch,
			StallBranch:     t.StallBranch,
		}
	}
	var hist []int64
	if r.MergeHist != nil {
		hist = append([]int64(nil), r.MergeHist...)
	}
	return sim.Result{
		Cycles:      r.Cycles,
		Instrs:      r.Instrs,
		Ops:         r.Ops,
		IPC:         r.IPC,
		MergeHist:   hist,
		Threads:     threads,
		ICache:      cache.Stats{Accesses: r.ICache.Accesses, Misses: r.ICache.Misses, Writebacks: r.ICache.Writebacks},
		DCache:      cache.Stats{Accesses: r.DCache.Accesses, Misses: r.DCache.Misses, Writebacks: r.DCache.Writebacks},
		IssueWidth:  r.IssueWidth,
		EmptyCycles: r.EmptyCycles,
		TimedOut:    r.TimedOut,
	}
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
	Index      int        `json:"index"`
	Job        Job        `json:"job"`
	Sim        *SimResult `json:"sim,omitempty"`
	Err        string     `json:"err,omitempty"`
	ElapsedSec float64    `json:"elapsed_sec"`
	Cached     bool       `json:"cached,omitempty"`
	Worker     string     `json:"worker,omitempty"`
	Shard      int        `json:"shard,omitempty"`
}

// ResultFrom converts an internal sweep result to its wire form.
func ResultFrom(r sweep.Result) Result {
	out := Result{Index: r.Index, Job: JobFrom(r.Job), ElapsedSec: r.Elapsed.Seconds(),
		Cached: r.Cached, Worker: r.Worker, Shard: r.Shard}
	if r.Err != nil {
		out.Err = r.Err.Error()
	}
	if r.Res != nil {
		s := SimResultFrom(*r.Res)
		out.Sim = &s
	}
	return out
}

// Sweep converts the wire form back to an internal sweep result. The
// job inside a result is informational, so a malformed scheme spec
// surfaces on the result's Err rather than failing the whole decode.
func (r Result) Sweep() sweep.Result {
	job, jerr := r.Job.Sweep()
	out := sweep.Result{
		Index:   r.Index,
		Job:     job,
		Elapsed: time.Duration(r.ElapsedSec * float64(time.Second)),
		Cached:  r.Cached,
		Worker:  r.Worker,
		Shard:   r.Shard,
	}
	if r.Err != "" {
		out.Err = errors.New(r.Err)
	} else if jerr != nil {
		out.Err = jerr
	}
	if r.Sim != nil {
		res := r.Sim.Sim()
		out.Res = &res
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
