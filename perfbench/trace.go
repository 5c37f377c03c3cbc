package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vliwmt"
	"vliwmt/internal/api"
	"vliwmt/internal/compiler"
	"vliwmt/internal/program"
	"vliwmt/internal/server"
	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
	"vliwmt/internal/telemetry"
	wl "vliwmt/internal/workload"
)

// span is one timed call into a layer. Spans of one operation share Req.
// A derived span's duration comes from the program's own accounting
// (a result's Elapsed) rather than a stopwatch around the call, so it
// has no start time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started; -1 when derived
	Dur    int64  `json:"dur_ns"`
	Jobs   int    `json:"jobs,omitempty"`   // sweep spans: jobs run
	Cycles int64  `json:"cycles,omitempty"` // simulation spans: cycles simulated
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// req and reqSpan name the operation in flight, for the spans the
	// server side records on its own goroutines (the loop is closed, so
	// there is exactly one); sweepSpan is the engine run in flight, the
	// parent of the store spans.
	req, reqSpan, sweepSpan atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its ID.
func (t *tracer) open(name string, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

// reset drops every span and restarts the clock.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.t0 = nil, time.Now()
}

// close ends span id.
func (t *tracer) close(id int) {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Dur = end - t.spans[id-1].Start
}

// annotate records the jobs or cycles a span covered.
func (t *tracer) annotate(id, jobs int, cycles int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Jobs, t.spans[id-1].Cycles = jobs, cycles
}

// add records a finished span; a zero start marks it derived.
func (t *tracer) add(name string, parent, req int, start time.Time, d time.Duration, cycles int64) {
	s := int64(-1)
	if !start.IsZero() {
		s = start.Sub(t.t0).Nanoseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: s, Dur: d.Nanoseconds(), Cycles: cycles})
}

// setRequest names the operation in flight.
func (t *tracer) setRequest(req, id int) {
	t.req.Store(int64(req))
	t.reqSpan.Store(int64(id))
}

// stat aggregates the spans named name.
type stat struct {
	n      int
	total  time.Duration
	cycles int64
	durs   []time.Duration
}

func (t *tracer) stat(name string) stat {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s stat
	for _, sp := range t.spans {
		if sp.Name == name {
			s.n++
			s.total += time.Duration(sp.Dur)
			s.cycles += sp.Cycles
			s.durs = append(s.durs, time.Duration(sp.Dur))
		}
	}
	return s
}

func (s stat) p50us() float64 {
	return float64(quantile(sortedDurations(s.durs), 0.5)) / 1e3
}

// selfTimes returns the mean self time of the sweep spans per job (the
// engine's wall time minus its store and simulation children) and of
// the request spans per request (the client-observed time minus the
// engine run and the codec time, codecNS per request). The self times of
// every layer sum to the layer spans' total; attributed is that total.
func (t *tracer) selfTimes(codecNS float64) (sweepUSPerJob, serverMSPerReq float64, attributed time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := map[int]*span{}
	for k := range t.spans {
		byID[t.spans[k].ID] = &t.spans[k]
	}
	var sweepSelf, serverSelf time.Duration
	jobs, reqs := 0, 0
	for _, sp := range t.spans {
		d := time.Duration(sp.Dur)
		switch {
		case sp.Name == "sweep":
			sweepSelf += d
			jobs += sp.Jobs
		case sp.Name == "request":
			serverSelf += d - time.Duration(codecNS)
			reqs++
			attributed += d
		}
		if p, ok := byID[sp.Parent]; ok {
			switch p.Name {
			case "sweep":
				sweepSelf -= d
			case "request":
				serverSelf -= d
			case "op":
				attributed += d
			}
		}
	}
	if jobs > 0 {
		sweepUSPerJob = float64(sweepSelf) / 1e3 / float64(jobs)
	}
	if reqs > 0 {
		serverMSPerReq = float64(serverSelf) / 1e6 / float64(reqs)
	}
	return sweepUSPerJob, serverMSPerReq, attributed
}

// timedStore is the sweep.ResultStore hook: it times every Get and Put
// of the store it wraps.
type timedStore struct {
	s  *vliwmt.ResultStore
	tr *tracer
}

func (t timedStore) Get(j sweep.Job) (*sim.Result, time.Duration, bool) {
	start := time.Now()
	res, elapsed, ok := t.s.Get(j)
	d := time.Since(start)
	name := "store.get.miss"
	if ok {
		name = "store.get.hit"
	}
	t.tr.add(name, int(t.tr.sweepSpan.Load()), int(t.tr.req.Load()), start, d, 0)
	return res, elapsed, ok
}

func (t timedStore) Put(j sweep.Job, res *sim.Result, elapsed time.Duration) error {
	start := time.Now()
	err := t.s.Put(j, res, elapsed)
	t.tr.add("store.put", int(t.tr.sweepSpan.Load()), int(t.tr.req.Load()), start, time.Since(start), 0)
	return err
}

// shapeOf is the part of a job the engine's batching groups by.
func shapeOf(j sweep.Job) string {
	return fmt.Sprintf("%+v|%s", j.Machine, strings.Join(j.Benchmarks, "|"))
}

// tracedEngineRun runs jobs on e inside a sweep span and records one
// derived simulation span per simulated job from its Elapsed: a lane's
// share of its batch, or a solo run (which includes the job's compile
// lookups). Jobs the engine groups into units of more than one run on
// the batched core.
func tracedEngineRun(ctx context.Context, tr *tracer, e *sweep.Engine, parent, req int, jobs []sweep.Job) ([]sweep.Result, error) {
	id := tr.open("sweep", parent, req)
	tr.sweepSpan.Store(int64(id))
	res, err := e.Run(ctx, jobs)
	tr.close(id)
	tr.annotate(id, len(jobs), 0)
	shapes := map[string]int{}
	for _, j := range jobs {
		shapes[shapeOf(j)]++
	}
	for _, r := range res {
		if r.Err != nil || r.Res == nil || r.Cached {
			continue
		}
		name := "sim.solo"
		if shapes[shapeOf(r.Job)] > 1 {
			name = "sim.batch"
		}
		tr.add(name, id, req, time.Time{}, r.Elapsed, r.Res.Cycles)
	}
	return res, err
}

// tracedExecutor is the server.Options.Execute hook: the server's
// default execution (an engine on a shared compile cache and store)
// with the engine run and the store calls traced.
func tracedExecutor(tr *tracer, cc *vliwmt.CompileCache, store *vliwmt.ResultStore) server.Executor {
	return func(ctx context.Context, jobs []sweep.Job, workers int, progress sweep.ProgressFunc) ([]sweep.Result, error) {
		e := sweep.New(workers)
		e.SetCache(cc)
		e.SetStore(timedStore{s: store, tr: tr})
		e.SetProgress(progress)
		return tracedEngineRun(ctx, tr, e, int(tr.reqSpan.Load()), int(tr.req.Load()), jobs)
	}
}

// counters reads the simulator's process-wide instruments.
type counters struct{ cycles, ff, batchRuns, batchJobs int64 }

func readCounters() counters {
	s := telemetry.Default().Snapshot()
	return counters{
		cycles:    s.Counter("sim_cycles_total"),
		ff:        s.Counter("sim_fastforward_cycles_total"),
		batchRuns: s.Counter("sim_batch_runs_total"),
		batchJobs: s.Counter("sim_batch_jobs_total"),
	}
}

func (c counters) sub(o counters) counters {
	return counters{c.cycles - o.cycles, c.ff - o.ff, c.batchRuns - o.batchRuns, c.batchJobs - o.batchJobs}
}

// simLayer is one simulation core's measurement.
type simLayer struct {
	busy   time.Duration
	cycles int64
	ctr    counters
}

func (s simLayer) nsPerCycle() float64 { return ratio(float64(s.busy), float64(s.cycles)) }
func (s simLayer) ffFrac() float64     { return ratio(float64(s.ctr.ff), float64(s.ctr.cycles)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probe measures, on the workload's seeded sample, every layer its own
// path does not cross, plus the layers no hook reaches: kernel build,
// compilation and planning, the two simulation cores, the store, the
// wire codec and a service round trip against a warm store.
type probe struct {
	kernels                 int
	wgen, compile           time.Duration
	planPerCall             time.Duration
	solo, batch             simLayer
	batchCalls, batchLanes  int64
	puts, hits, misses      []time.Duration
	allocsPerHit            float64
	bytesPerEntry           float64
	encode, decode          time.Duration // per request of the sample
	statusBytes             int
	allocsPerResult         float64
	sweepUSPerJob, serverMS float64
	problems                []string
	tr                      *tracer // the service round trip's spans
}

// probeRepeats is how often the probe repeats a sub-millisecond call
// whose median it reports.
const probeRepeats = 21

func medianOf(n int, f func()) time.Duration {
	ds := make([]time.Duration, n)
	for k := range ds {
		t := time.Now()
		f()
		ds[k] = time.Since(t)
	}
	return quantile(sortedDurations(ds), 0.5)
}

func runProbe(w workload, dir string) (*probe, error) {
	p := &probe{}
	m := vliwmt.DefaultMachine()
	var plans int
	for _, name := range w.kernels() {
		b, err := wl.ByName(name)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		fn := b.Build()
		p.wgen += time.Since(t)
		t = time.Now()
		prog, err := compiler.Compile(fn, compiler.Options{Machine: m, Unroll: b.Unroll})
		p.compile += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		p.planPerCall += medianOf(5, func() { program.NewPlan(prog) })
		plans++
		p.kernels++
	}
	p.planPerCall /= time.Duration(max(plans, 1))

	// Both simulation cores on the sample; they must agree.
	jobs := w.sample()
	cc := vliwmt.NewCompileCache()
	results := make([]sweep.Result, len(jobs))
	before := readCounters()
	for k, j := range jobs {
		tasks, err := jobTasks(cc, j)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		res, err := sim.Run(jobConfig(j), tasks)
		p.solo.busy += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("probe sim.Run %s: %w", j.Describe(), err)
		}
		p.solo.cycles += res.Cycles
		results[k] = sweep.Result{Index: k, Job: j, Res: res, Elapsed: time.Since(t)}
	}
	mid := readCounters()
	p.solo.ctr = mid.sub(before)
	groups := map[string][]int{}
	var order []string
	for k, j := range jobs {
		s := shapeOf(j)
		if groups[s] == nil {
			order = append(order, s)
		}
		groups[s] = append(groups[s], k)
	}
	for _, s := range order {
		idx := groups[s]
		var cfgs []sim.Config
		for _, k := range idx {
			cfgs = append(cfgs, jobConfig(jobs[k]))
		}
		tasks, _ := jobTasks(cc, jobs[idx[0]]) // compiled above
		t := time.Now()
		ress, err := sim.RunBatch(cfgs, tasks)
		p.batch.busy += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("probe sim.RunBatch: %w", err)
		}
		for n, k := range idx {
			p.batch.cycles += ress[n].Cycles
			if !reflect.DeepEqual(ress[n], results[k].Res) {
				p.problems = append(p.problems, fmt.Sprintf("probe: %s: sim.RunBatch and sim.Run disagree", jobs[k].Describe()))
			}
		}
	}
	p.batch.ctr = readCounters().sub(mid)
	p.batchCalls, p.batchLanes = p.batch.ctr.batchRuns, p.batch.ctr.batchJobs

	// The store: a put, a hit and a miss per sample job.
	store := vliwmt.OpenResultStore(filepath.Join(dir, "probe-store"))
	for _, r := range results {
		t := time.Now()
		if err := store.Put(r.Job, r.Res, r.Elapsed); err != nil {
			return nil, fmt.Errorf("probe store: %w", err)
		}
		p.puts = append(p.puts, time.Since(t))
		t = time.Now()
		if _, _, ok := store.Get(r.Job); !ok {
			p.problems = append(p.problems, fmt.Sprintf("probe: stored %s did not hit", r.Job.Describe()))
		}
		p.hits = append(p.hits, time.Since(t))
		miss := r.Job
		miss.Seed ^= 1 << 62
		t = time.Now()
		store.Get(miss)
		p.misses = append(p.misses, time.Since(t))
	}
	p.allocsPerHit = testing.AllocsPerRun(20, func() { store.Get(results[0].Job) })
	var total, files int64
	err := filepath.WalkDir(store.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		files++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("probe store: %w", err)
	}
	p.bytesPerEntry = ratio(float64(total), float64(files))

	// The wire codec: the sample as one request, its results as one
	// terminal status document, encoded as the server writes it.
	p.encode = medianOf(probeRepeats, func() {
		req := api.SweepRequest{Jobs: make([]api.Job, len(jobs))}
		for k, j := range jobs {
			req.Jobs[k] = api.JobFrom(j)
		}
		var b bytes.Buffer
		_ = api.EncodeSweepRequest(&b, req) // a plain document always encodes
	})
	var doc bytes.Buffer
	enc := json.NewEncoder(&doc)
	enc.SetIndent("", "  ")
	st := api.SweepStatus{Version: api.Version, ID: "s000001", State: api.StateDone,
		Done: len(results), Total: len(results), Results: api.ResultsFrom(results)}
	if err := enc.Encode(st); err != nil {
		return nil, fmt.Errorf("probe encode status: %w", err)
	}
	p.statusBytes = doc.Len()
	decode := func() {
		got, err := api.DecodeSweepStatus(bytes.NewReader(doc.Bytes()))
		if err == nil {
			api.SweepResults(got.Results)
		}
	}
	if _, err := api.DecodeSweepStatus(bytes.NewReader(doc.Bytes())); err != nil {
		return nil, fmt.Errorf("probe decode status: %w", err)
	}
	p.decode = medianOf(probeRepeats, decode)
	p.allocsPerResult = testing.AllocsPerRun(10, decode) / float64(len(results))

	if w.paths().server {
		return p, nil
	}
	// A service round trip of the sample against the now warm store.
	p.tr = newTracer()
	srv := server.New(server.Options{Workers: 1, Store: store, DisableDebug: true,
		Execute: tracedExecutor(p.tr, cc, store)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := vliwmt.NewClient(ts.URL)
	for q := 0; q < serviceJobsPerRequest; q++ {
		id := p.tr.open("request", 0, q)
		p.tr.setRequest(q, id)
		res, err := client.SweepJobs(context.Background(), jobs, &vliwmt.SweepOptions{Workers: 1})
		p.tr.close(id)
		if err != nil {
			return nil, fmt.Errorf("probe round trip: %w", err)
		}
		for k, r := range res {
			if !bytes.Equal(resultBytes(r), resultBytes(results[k])) {
				p.problems = append(p.problems, fmt.Sprintf("probe: %s differs over the wire", r.Job.Describe()))
			}
		}
	}
	p.sweepUSPerJob, p.serverMS, _ = p.tr.selfTimes(float64(p.encode + p.decode))
	return p, nil
}

// perLayerInput is what the traced run hands the per-layer report.
type perLayerInput struct {
	plain, traced *phase
	tr            *tracer
	ctr           counters // simulator instruments over the traced phase
}

// perLayer runs the probe, fills the traced run's metrics, writes the
// spans out, and returns the exact counts that must repeat run to run.
func perLayer(rep *report, w workload, in perLayerInput, dir, tracePath string) (map[string]int64, error) {
	pr, err := runProbe(w, dir)
	if err != nil {
		return nil, err
	}
	for _, msg := range pr.problems {
		rep.fail("%s", msg)
	}
	paths := w.paths()
	tr := in.tr
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }

	batch, batchCalls, batchLanes := pr.batch, pr.batchCalls, pr.batchLanes
	if paths.batch {
		s := tr.stat("sim.batch")
		batch = simLayer{busy: s.total, cycles: s.cycles, ctr: in.ctr}
		batchCalls, batchLanes = in.ctr.batchRuns, in.ctr.batchJobs
	}
	rep.set("sim.batch.busy_s", batch.busy.Seconds(), "s")
	rep.set("sim.batch.ns_per_lane_cycle", batch.nsPerCycle(), "ns")
	rep.set("sim.batch.lanes_per_call", ratio(float64(batchLanes), float64(batchCalls)), "count")
	rep.set("sim.batch.ff_cycles_frac", batch.ffFrac(), "fraction")

	solo := pr.solo
	if paths.solo {
		s := tr.stat("sim.solo")
		solo = simLayer{busy: s.total, cycles: s.cycles, ctr: in.ctr}
	}
	rep.set("sim.solo.busy_s", solo.busy.Seconds(), "s")
	rep.set("sim.solo.ns_per_cycle", solo.nsPerCycle(), "ns")
	rep.set("sim.solo.ff_cycles_frac", solo.ffFrac(), "fraction")

	rep.set("program.plan_us_per_call", us(pr.planPerCall), "us")

	c := in.traced.counts
	rep.set("merge.merges", float64(c.Merges), "count")
	rep.set("merge.conflict_cycles", float64(c.Conflicts), "count")
	rep.set("cache.dcache_accesses", float64(c.DAccesses), "count")
	rep.set("cache.dcache_miss_ratio", ratio(float64(c.DMisses), float64(c.DAccesses)), "fraction")
	rep.set("sim.cycles", float64(c.Cycles), "count")

	compiles, cacheHits := w.compileCache().Stats()
	rep.set("compiler.compiles", float64(compiles), "count")
	rep.set("compiler.busy_ms", float64(pr.compile)/1e6, "ms")
	rep.set("wgen.kernels", float64(pr.kernels), "count")
	rep.set("wgen.busy_ms", float64(pr.wgen)/1e6, "ms")

	hits, misses, puts := tr.stat("store.get.hit"), tr.stat("store.get.miss"), tr.stat("store.put")
	hitUS, missUS, putUS := hits.p50us(), misses.p50us(), puts.p50us()
	if !paths.storeHit {
		hitUS = stat{durs: pr.hits}.p50us()
	}
	if !paths.storeWrite {
		missUS, putUS = stat{durs: pr.misses}.p50us(), stat{durs: pr.puts}.p50us()
	}
	rep.set("resultstore.get_hit_us_p50", hitUS, "us")
	rep.set("resultstore.get_miss_us_p50", missUS, "us")
	rep.set("resultstore.put_us_p50", putUS, "us")
	rep.set("resultstore.allocs_per_hit", pr.allocsPerHit, "count")
	rep.set("resultstore.bytes_per_entry", pr.bytesPerEntry, "B")
	rep.set("resultstore.hit_ratio", ratio(float64(hits.n), float64(hits.n+misses.n)), "fraction")

	codec := float64(pr.encode + pr.decode)
	sweepUS, serverMS, attributed := tr.selfTimes(codec)
	if !paths.sweep {
		sweepUS = pr.sweepUSPerJob
	}
	if !paths.server {
		serverMS = pr.serverMS
	}
	rep.set("sweep.self_us_per_job", sweepUS, "us")
	rep.set("sweep.compile_hit_ratio", ratio(float64(cacheHits), float64(cacheHits+compiles)), "fraction")

	rep.set("api.encode_us_per_request", us(pr.encode), "us")
	rep.set("api.decode_us_per_status", us(pr.decode), "us")
	rep.set("api.status_bytes", float64(pr.statusBytes), "B")
	rep.set("api.allocs_per_result", pr.allocsPerResult, "count")

	rep.set("server.self_ms_per_request", serverMS, "ms")

	rep.set("trace.overhead_frac", median(durSeconds(in.traced.roundTimes))/median(durSeconds(in.plain.roundTimes))-1, "fraction")
	rep.set("trace.unaccounted_frac", 1-float64(attributed)/float64(in.traced.wall), "fraction")

	if err := writeTrace(tracePath, tr, pr.tr); err != nil {
		return nil, err
	}
	return map[string]int64{
		"merge.merges":               c.Merges,
		"merge.conflict_cycles":      c.Conflicts,
		"cache.dcache_accesses":      c.DAccesses,
		"cache.dcache_misses":        c.DMisses,
		"sim.cycles":                 c.Cycles,
		"compiler.compiles":          compiles,
		"resultstore.allocs_per_hit": int64(pr.allocsPerHit),
		"api.allocs_per_result_x100": int64(pr.allocsPerResult * 100),
	}, nil
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for k, d := range ds {
		out[k] = d.Seconds()
	}
	return out
}

// writeTrace writes the spans of the traced phase and of the probe's
// round trip as one JSON document.
func writeTrace(path string, main, probe *tracer) error {
	doc := struct {
		Phase []span `json:"phase"`
		Probe []span `json:"probe,omitempty"`
	}{Phase: main.spans}
	if probe != nil {
		doc.Probe = probe.spans
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
