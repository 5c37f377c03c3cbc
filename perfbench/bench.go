package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"vliwmt"
	"vliwmt/internal/api"
	"vliwmt/internal/sweep"
)

// setupRepeats is how many times a run performs its set-up phase;
// setup_s is their median, and the last set-up's state is measured.
const setupRepeats = 3

// workload is one fixed, seeded list of operations plus the set-up it
// needs. The harness times set-up and operations; the workload owns
// everything it calls into the simulator's layers with.
type workload interface {
	// setUp builds the state the timed phase needs, discarding any
	// earlier set-up's state. A non-nil tracer selects the traced
	// variant of whatever the set-up installs (e.g. a server executor).
	setUp(tr *tracer) error
	// rounds returns the number of rounds and the operations per round.
	// Every round carries comparable work, so per-round throughput has a
	// meaningful median.
	rounds() (n, opsPerRound int)
	// op runs operation i of the timed phase; tr is nil when untraced.
	op(i int, tr *tracer) []sweep.Result
	// settle checks operation i's results against the workload's own
	// expectations and releases per-operation scratch state. It runs
	// outside the timed interval and returns one line per mismatch.
	settle(i int, res []sweep.Result) []string
	// check re-runs a seeded sample of the phase's jobs through an
	// independent path outside the timed phase: checks made, mismatches.
	check() (int, []string)
	// sample returns the seeded jobs the layer probe sends through the
	// layers the workload's own path does not cross.
	sample() []sweep.Job
	// kernels lists the distinct benchmark names the workload builds.
	kernels() []string
	// paths reports which layers the workload's own path crosses.
	paths() layerPaths
	// compileCache is the cache the last set-up and the phase after it
	// compiled through.
	compileCache() *vliwmt.CompileCache
	close()
}

// layerPaths says which layers a workload measures in place; the probe
// measures the others on the workload's sample.
type layerPaths struct {
	batch, solo, storeHit, storeWrite, sweep, server bool
}

// phase is the measurement of one pass over the work list.
type phase struct {
	opTimes    []time.Duration // per operation
	roundTimes []time.Duration // per round: the sum of its operation times
	roundWork  []float64       // per round: simulated instructions
	roundJobs  []int
	wall       time.Duration // whole phase, harness bookkeeping included
	jobs       int
	failed     int
	problems   []string
	counts     simCounts
	results    []sweep.Result // every result, in order
	hash       []byte
}

// simCounts are deterministic simulated totals over a phase's results.
type simCounts struct {
	Cycles, Instrs, Ops, Merges, Conflicts, DAccesses, DMisses int64
}

func (c *simCounts) add(r *sweep.Result) {
	s := r.Res
	c.Cycles += s.Cycles
	c.Instrs += s.Instrs
	c.Ops += s.Ops
	for k, n := range s.MergeHist {
		if k >= 2 {
			c.Merges += int64(k-1) * n
		}
	}
	for _, t := range s.Threads {
		c.Conflicts += t.ConflictCycles
	}
	c.DAccesses += s.DCache.Accesses
	c.DMisses += s.DCache.Misses
}

// jobFailure describes why a result does not count as a success: a job
// error, a missing result or a timed-out simulation.
func jobFailure(r sweep.Result) string {
	switch {
	case r.Err != nil:
		return r.Err.Error()
	case r.Res == nil:
		return "no result"
	case r.Res.TimedOut:
		return fmt.Sprintf("timed out after %d cycles", r.Res.Cycles)
	}
	return ""
}

// resultBytes is the canonical encoding of a result's simulated outcome
// (the wire form, which excludes Elapsed, Cached, Worker and Shard).
func resultBytes(r sweep.Result) []byte {
	if msg := jobFailure(r); msg != "" {
		return []byte("error: " + msg)
	}
	b, err := json.Marshal(api.SimResultFrom(*r.Res))
	if err != nil {
		return []byte("encode error: " + err.Error())
	}
	return b
}

// runPhase runs the whole work list once.
func runPhase(w workload, tr *tracer) *phase {
	n, per := w.rounds()
	p := &phase{}
	h := sha256.New()
	start := time.Now()
	for r := 0; r < n; r++ {
		var rt time.Duration
		var work float64
		jobs := 0
		for k := 0; k < per; k++ {
			i := r*per + k
			t := time.Now()
			res := w.op(i, tr)
			d := time.Since(t)
			rt += d
			p.opTimes = append(p.opTimes, d)
			p.problems = append(p.problems, w.settle(i, res)...)
			for _, x := range res {
				p.jobs++
				jobs++
				h.Write(resultBytes(x))
				h.Write([]byte{'\n'})
				if msg := jobFailure(x); msg != "" {
					p.failed++
					p.problems = append(p.problems, fmt.Sprintf("op %d: job %s: %s", i, x.Job.Describe(), msg))
					continue
				}
				p.counts.add(&x)
				work += float64(x.Res.Instrs)
			}
			p.results = append(p.results, res...)
		}
		p.roundTimes = append(p.roundTimes, rt)
		p.roundWork = append(p.roundWork, work)
		p.roundJobs = append(p.roundJobs, jobs)
	}
	p.wall = time.Since(start)
	p.hash = h.Sum(nil)
	return p
}

// fingerprint renders the phase's simulated totals and its
// order-sensitive result hash.
func (p *phase) fingerprint() string {
	c := p.counts
	return fmt.Sprintf("cycles=%d instrs=%d ops=%d hash=%s", c.Cycles, c.Instrs, c.Ops, hex.EncodeToString(p.hash))
}

// throughput returns the median over rounds of work per second, and of
// jobs per second.
func (p *phase) throughput() (instrPerSec, jobsPerSec float64) {
	var ips, jps []float64
	for i, d := range p.roundTimes {
		s := d.Seconds()
		ips = append(ips, p.roundWork[i]/s)
		jps = append(jps, float64(p.roundJobs[i])/s)
	}
	return median(ips), median(jps)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the q-quantile of sorted durations, by the
// nearest-rank rule.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailQuantile is the highest percentile, at most p99, that leaves at
// least ten samples beyond it, floored at the median: fewer samples
// than that cannot support a tail figure.
func tailQuantile(n int) float64 {
	q := 0.99
	if n > 0 && float64(n)*(1-q) < 10 {
		q = 1 - 10/float64(n)
	}
	return max(q, 0.5)
}

func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// record is what the first run of a (workload, seed, size) leaves
// behind for later runs to match exactly.
type record struct {
	Fingerprint string           `json:"fingerprint"`
	Counts      map[string]int64 `json:"counts,omitempty"`
}

// matchRecord compares a run's fingerprint (and, when counts is
// non-nil, its exact per-layer counts) with the first run's, writing
// the record when there is none yet. It returns the mismatches.
func matchRecord(path, fp string, counts map[string]int64) ([]string, error) {
	var rec record
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("read record %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return nil, err
	}
	var bad []string
	if rec.Fingerprint == "" {
		rec.Fingerprint = fp
	} else if rec.Fingerprint != fp {
		bad = append(bad, fmt.Sprintf("fingerprint %s differs from the first run's %s", fp, rec.Fingerprint))
	}
	if counts != nil {
		if rec.Counts == nil {
			rec.Counts = counts
		} else {
			for k, v := range counts {
				if old, ok := rec.Counts[k]; ok && old != v {
					bad = append(bad, fmt.Sprintf("exact count %s = %d differs from the first run's %d", k, v, old))
				}
			}
			for k, v := range counts {
				if _, ok := rec.Counts[k]; !ok {
					rec.Counts[k] = v
				}
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	return bad, os.WriteFile(path, append(out, '\n'), 0o644)
}

// runBench performs one invocation: set-up, the timed phase (twice,
// untraced then traced, with --trace 1), the output checks, and the
// metrics.
func runBench(o options, log io.Writer) (*report, error) {
	work := filepath.Join(o.state, "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	w, err := newWorkload(o, work)
	if err != nil {
		return nil, err
	}
	defer w.close()

	rep := &report{Metrics: map[string]metric{}, workload: o.workload}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t := time.Now()
		if err := w.setUp(nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	fmt.Fprintf(log, "perfbench: %s set-up done (%.3fs median)\n", o.workload, median(setups))

	plain := runPhase(w, nil)
	phases := []*phase{plain}
	var traced *phase
	var tr *tracer
	var ctr counters
	if o.trace {
		// A fresh set-up starts the traced phase from the state the
		// untraced one started from.
		tr = newTracer()
		if err := w.setUp(tr); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		tr.reset() // the set-up's own calls are not the phase's
		before := readCounters()
		traced = runPhase(w, tr)
		ctr = readCounters().sub(before)
		phases = append(phases, traced)
	}

	for _, p := range phases {
		// problems holds one line per failed job plus one per mismatch
		// that settle found.
		rep.Attempted += p.jobs
		for _, msg := range p.problems {
			rep.fail("%s", msg)
		}
	}
	if traced != nil && traced.fingerprint() != plain.fingerprint() {
		rep.Attempted++
		rep.fail("traced phase fingerprint %s differs from untraced %s", traced.fingerprint(), plain.fingerprint())
	}
	n, bad := w.check()
	rep.Attempted += n
	for _, msg := range bad {
		rep.fail("%s", msg)
	}

	key := fmt.Sprintf("%s-seed%d-rounds%d", o.workload, o.seed, len(plain.roundTimes))
	if o.instr != 0 {
		key += fmt.Sprintf("-instr%d", o.instr)
	}
	if o.injectFailure {
		key += "-injected"
	}
	recPath := filepath.Join(o.state, "records", key+".json")

	if !o.trace {
		rep.Attempted++
		mism, err := matchRecord(recPath, plain.fingerprint(), nil)
		if err != nil {
			return nil, err
		}
		for _, m := range mism {
			rep.fail("%s", m)
		}
		endToEnd(rep, plain, setups)
		rep.notef("fingerprint %s", plain.fingerprint())
	} else {
		in := perLayerInput{plain: plain, traced: traced, tr: tr, ctr: ctr}
		counts, err := perLayer(rep, w, in, work, filepath.Join(o.state, "traces", key+".json"))
		if err != nil {
			return nil, err
		}
		rep.Attempted++
		mism, err := matchRecord(recPath, plain.fingerprint(), counts)
		if err != nil {
			return nil, err
		}
		for _, m := range mism {
			rep.fail("%s", m)
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rep.notef("exact %s = %d", k, counts[k])
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// endToEnd fills the untraced run's metrics.
func endToEnd(rep *report, p *phase, setups []float64) {
	ips, jps := p.throughput()
	rep.set("minstr_per_s", ips/1e6, "Minstr/s")
	rep.set("jobs_per_s", jps, "1/s")
	lat := sortedDurations(p.opTimes)
	tq := tailQuantile(len(lat))
	rep.set("latency_p50_ms", ms(quantile(lat, 0.5)), "ms")
	rep.set("latency_p99_ms", ms(quantile(lat, tq)), "ms")
	rep.notef("latency over %d operations; latency_p99_ms is p%.4g (at least 10 samples beyond it)", len(lat), 100*tq)
	rep.notef("throughput is the median over %d rounds; timed phase %.3fs", len(p.roundTimes), p.wall.Seconds())
	if rss, err := peakRSSMB(); err == nil {
		rep.set("rss_peak_mb", rss, "MB")
	} else {
		rep.fail("rss_peak_mb: %v", err)
	}
	rep.set("setup_s", median(setups), "s")
	rep.notef("setup_s is the median of %d set-ups: %v", len(setups), setups)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
