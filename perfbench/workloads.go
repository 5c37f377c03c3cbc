package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"vliwmt"
	"vliwmt/internal/cache"
	"vliwmt/internal/isa"
	"vliwmt/internal/merge"
	"vliwmt/internal/refsim"
	"vliwmt/internal/server"
	"vliwmt/internal/sim"
	"vliwmt/internal/sweep"
	"vliwmt/internal/wgen"
	wl "vliwmt/internal/workload"
)

// badScheme names no merge scheme; an injected job on it must fail.
const badScheme = "NO-SUCH-SCHEME"

// Work-list sizes. Each workload's size is a fixed function of --seconds
// (rounds = seconds x roundsPerSecond), calibrated so that one run
// measures about that long on a 2-core x86-64 box, and never of the
// time actually taken: the same arguments always give the same work.
const (
	gridInstr           = 20_000 // per-thread budget of every cold-grid job
	gridRoundsPerSecond = 0.6    // one round is one 144-job grid pass

	soloInstr           = 50_000 // per-thread budget of every solo-stall call
	soloPairs           = 24     // (scheme, mix) pairs per round
	soloRoundsPerSecond = 2.0

	serviceInstr            = 20_000 // per-thread budget of every service job
	servicePalette          = 32     // jobs the set-up stores
	serviceJobsPerRequest   = 8
	serviceFreshEvery       = 8 // every 8th request carries one fresh job
	serviceRequestsPerRound = 64
	serviceRoundsPerSecond  = 2.8

	checkSample = 3 // jobs re-run through an independent path per check
)

// newWorkload builds the named workload's work list from the seed.
func newWorkload(o options, work string) (workload, error) {
	size := func(perSecond float64) int {
		if o.rounds > 0 {
			return o.rounds
		}
		return max(2, int(math.Round(float64(o.seconds)*perSecond)))
	}
	instr := func(def int64) int64 {
		if o.instr > 0 {
			return o.instr
		}
		return def
	}
	switch o.workload {
	case "cold-grid":
		return newColdGrid(o, work, size(gridRoundsPerSecond), instr(gridInstr))
	case "solo-stall":
		return newSoloStall(o, size(soloRoundsPerSecond), instr(soloInstr))
	case "service-mixed":
		return newServiceMixed(o, work, size(serviceRoundsPerSecond), instr(serviceInstr))
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-grid, solo-stall or service-mixed)", o.workload)
}

// rng is a splitmix64 stream: the benchmark's only source of input
// randomness, so a seed fixes every input.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// jobConfig lowers a sweep job to the simulator configuration the
// engine would run it with.
func jobConfig(j sweep.Job) sim.Config {
	return sim.Config{
		Machine:         j.Machine,
		ICache:          j.ICache,
		DCache:          j.DCache,
		PerfectMemory:   j.PerfectMemory,
		Contexts:        j.EffectiveContexts(),
		Scheme:          j.Scheme,
		Merge:           j.Merge,
		TimesliceCycles: j.TimesliceCycles,
		InstrLimit:      j.InstrLimit,
		Seed:            j.Seed,
	}
}

// jobTasks compiles a job's benchmarks through cc.
func jobTasks(cc *vliwmt.CompileCache, j sweep.Job) ([]sim.Task, error) {
	var tasks []sim.Task
	for _, name := range j.Benchmarks {
		p, err := cc.Get(name, j.Machine)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		tasks = append(tasks, sim.Task{Name: name, Prog: p})
	}
	return tasks, nil
}

// refCheck re-runs jobs through the reference simulator and compares
// each with the result the workload produced.
func refCheck(cc *vliwmt.CompileCache, jobs []sweep.Job, got []*sim.Result) []string {
	var bad []string
	for i, j := range jobs {
		tasks, err := jobTasks(cc, j)
		if err != nil {
			bad = append(bad, fmt.Sprintf("refsim check %s: %v", j.Describe(), err))
			continue
		}
		want, err := refsim.Run(jobConfig(j), tasks)
		if err != nil {
			bad = append(bad, fmt.Sprintf("refsim check %s: %v", j.Describe(), err))
			continue
		}
		if !reflect.DeepEqual(want, got[i]) {
			bad = append(bad, fmt.Sprintf("refsim check %s: result differs from the reference simulator", j.Describe()))
		}
	}
	return bad
}

// distinctKernels lists the distinct benchmark names of jobs.
func distinctKernels(jobs []sweep.Job) []string {
	seen := map[string]bool{}
	var names []string
	for _, j := range jobs {
		for _, b := range j.Benchmarks {
			if !seen[b] {
				seen[b] = true
				names = append(names, b)
			}
		}
	}
	sort.Strings(names)
	return names
}

// freshDir returns a new, not yet existing directory under work.
func freshDir(work, prefix string, n *int) string {
	*n++
	return filepath.Join(work, fmt.Sprintf("%s-%d", prefix, *n))
}

// ---- cold-grid ----------------------------------------------------------

// coldGrid is a closed loop of Runner.Sweep passes over the paper's
// Fig. 10 grid (16 schemes x 9 Table 2 mixes) with one engine worker,
// default batching and a fresh result store each pass.
type coldGrid struct {
	o      options
	work   string
	n      int
	grid   vliwmt.Grid
	jobs   []sweep.Job
	cc     *vliwmt.CompileCache
	dirs   int
	first  [][]byte // the first pass's result encodings
	firstR []sweep.Result
}

func newColdGrid(o options, work string, passes int, instr int64) (*coldGrid, error) {
	g := vliwmt.Grid{InstrLimit: instr, Seed: o.seed}
	jobs, err := g.Jobs()
	if err != nil {
		return nil, err
	}
	return &coldGrid{o: o, work: work, n: passes, grid: g, jobs: jobs}, nil
}

func (w *coldGrid) rounds() (int, int) { return w.n, 1 }

func (w *coldGrid) setUp(tr *tracer) error {
	w.cc = vliwmt.NewCompileCache()
	for _, j := range w.jobs {
		if _, err := jobTasks(w.cc, j); err != nil {
			return err
		}
	}
	dir := freshDir(w.work, "warm", &w.dirs)
	defer os.RemoveAll(dir)
	r := vliwmt.NewRunner(vliwmt.WithWorkers(1), vliwmt.WithCache(w.cc), vliwmt.WithResultStore(dir))
	_, err := r.Sweep(context.Background(), w.grid)
	return err
}

func (w *coldGrid) passDir(i int) string { return filepath.Join(w.work, fmt.Sprintf("pass-%d", i)) }

func (w *coldGrid) op(i int, tr *tracer) []sweep.Result {
	ctx := context.Background()
	dir := w.passDir(i)
	jobs := w.jobs
	inject := w.o.injectFailure && i == 0
	if inject {
		bad := jobs[0]
		bad.Scheme, bad.Label = badScheme, "injected/"+badScheme
		jobs = append(append([]sweep.Job(nil), jobs...), bad)
	}
	var res []sweep.Result
	if tr == nil {
		r := vliwmt.NewRunner(vliwmt.WithWorkers(1), vliwmt.WithCache(w.cc), vliwmt.WithResultStore(dir))
		if inject {
			res, _ = r.SweepJobs(ctx, jobs)
		} else {
			res, _ = r.Sweep(ctx, w.grid)
		}
	} else {
		// Runner.Sweep is Grid.Jobs plus an engine run; the traced
		// variant builds the engine itself to install the timing store.
		root := tr.open("op", 0, i)
		if !inject {
			jobs, _ = w.grid.Jobs()
		}
		e := sweep.New(1)
		e.SetCache(w.cc)
		e.SetStore(timedStore{s: vliwmt.OpenResultStore(dir), tr: tr})
		res, _ = tracedEngineRun(ctx, tr, e, root, i, jobs)
		tr.close(root)
	}
	if len(res) == 0 {
		res = failAll(jobs, "sweep returned no results")
	}
	return res
}

// failAll stands in for the results of an operation that produced none.
func failAll(jobs []sweep.Job, msg string) []sweep.Result {
	res := make([]sweep.Result, len(jobs))
	for k, j := range jobs {
		res[k] = sweep.Result{Index: k, Job: j, Err: fmt.Errorf("%s", msg)}
	}
	return res
}

func (w *coldGrid) settle(i int, res []sweep.Result) []string {
	os.RemoveAll(w.passDir(i))
	return samePass(&w.first, &w.firstR, i, res)
}

// samePass checks that a round repeating identical work returns
// identical results, keeping the first round's encodings.
func samePass(first *[][]byte, firstR *[]sweep.Result, i int, res []sweep.Result) []string {
	if *first == nil {
		for _, r := range res {
			*first = append(*first, resultBytes(r))
		}
		*firstR = res
		return nil
	}
	if len(res) != len(*first) {
		return []string{fmt.Sprintf("op %d: %d results, the first round had %d", i, len(res), len(*first))}
	}
	var bad []string
	for k, r := range res {
		if jobFailure(r) == "" && !bytes.Equal(resultBytes(r), (*first)[k]) {
			bad = append(bad, fmt.Sprintf("op %d: job %s differs from the first round", i, r.Job.Describe()))
		}
	}
	return bad
}

func (w *coldGrid) check() (int, []string) {
	r := &rng{s: w.o.seed ^ 0xc01d}
	var jobs []sweep.Job
	var got []*sim.Result
	for k := 0; k < checkSample && len(w.firstR) > 0; k++ {
		x := w.firstR[r.intn(len(w.jobs))]
		if x.Res == nil {
			continue
		}
		jobs = append(jobs, x.Job)
		got = append(got, x.Res)
	}
	return len(jobs), refCheck(w.cc, jobs, got)
}

func (w *coldGrid) sample() []sweep.Job {
	// One batching unit: the sixteen schemes of one seeded mix.
	per := len(merge.PaperSchemes4())
	m := int(w.o.seed % uint64(len(w.jobs)/per))
	return w.jobs[m*per : (m+1)*per]
}

func (w *coldGrid) kernels() []string { return distinctKernels(w.jobs) }

func (w *coldGrid) paths() layerPaths { return layerPaths{batch: true, storeWrite: true, sweep: true} }

func (w *coldGrid) compileCache() *vliwmt.CompileCache { return w.cc }

func (w *coldGrid) close() {}

// ---- solo-stall ---------------------------------------------------------

// soloCall is one Runner.RunMix call of the solo-stall list.
type soloCall struct {
	mix string
	cfg vliwmt.Config
}

// soloStall is a closed loop of Runner.RunMix calls through the solo
// simulator over a seeded list of (scheme, mix) pairs, on a small,
// miss-heavy data cache that keeps the stall fast-forward busy.
type soloStall struct {
	o      options
	n      int
	calls  []soloCall
	r      *vliwmt.Runner
	first  [][]byte
	firstR []sweep.Result
}

// stallDCache is the miss-dominated data cache of the stall-heavy
// micro-benchmark: 2 KB, 2-way, 200-cycle miss penalty.
var stallDCache = cache.Config{Size: 2 << 10, LineSize: 64, Ways: 2, MissPenalty: 200}

func newSoloStall(o options, rounds int, instr int64) (*soloStall, error) {
	r := &rng{s: o.seed ^ 0x5010}
	schemes := merge.PaperSchemes4()
	mixes := wl.Mixes()
	w := &soloStall{o: o, n: rounds}
	for k := 0; k < soloPairs; k++ {
		scheme := schemes[r.intn(len(schemes))]
		ports, err := merge.Ports(scheme)
		if err != nil {
			return nil, err
		}
		cfg := vliwmt.DefaultConfig()
		cfg.Scheme = scheme
		cfg.Contexts = ports
		cfg.InstrLimit = instr
		cfg.TimesliceCycles = 5_000
		cfg.DCache = stallDCache
		cfg.Seed = r.next() | 1
		w.calls = append(w.calls, soloCall{mix: mixes[r.intn(len(mixes))].Name, cfg: cfg})
	}
	return w, nil
}

func (w *soloStall) rounds() (int, int) { return w.n, len(w.calls) }

func (w *soloStall) setUp(tr *tracer) error {
	w.r = vliwmt.NewRunner(vliwmt.WithWorkers(1))
	for _, c := range w.calls {
		if _, err := jobTasks(w.r.Cache(), w.job(c)); err != nil {
			return err
		}
	}
	for _, c := range w.calls {
		if _, err := w.r.RunMix(c.cfg, c.mix); err != nil {
			return err
		}
	}
	return nil
}

// job is the sweep-job form of a call, for checks and the layer probe.
func (w *soloStall) job(c soloCall) sweep.Job {
	mix, _ := wl.MixByName(c.mix) // names come from workload.Mixes
	return sweep.Job{
		Label:           c.mix + "/" + c.cfg.Scheme,
		Scheme:          c.cfg.Scheme,
		Benchmarks:      mix.Members[:],
		Contexts:        c.cfg.Contexts,
		Machine:         c.cfg.Machine,
		ICache:          c.cfg.ICache,
		DCache:          c.cfg.DCache,
		InstrLimit:      c.cfg.InstrLimit,
		TimesliceCycles: c.cfg.TimesliceCycles,
		Seed:            c.cfg.Seed,
	}
}

func (w *soloStall) op(i int, tr *tracer) []sweep.Result {
	c := w.calls[i%len(w.calls)]
	if w.o.injectFailure && i == 0 {
		c.cfg.Scheme = badScheme
	}
	job := w.job(c)
	var res *sim.Result
	var err error
	if tr == nil {
		res, err = w.r.RunMix(c.cfg, c.mix)
	} else {
		// Runner.RunMix is a mix lookup, compile-cache lookups and
		// sim.Run; the traced variant makes the same calls itself.
		root := tr.open("op", 0, i)
		var mix vliwmt.Mix
		if mix, err = vliwmt.MixByName(c.mix); err == nil {
			id := tr.open("compile", root, i)
			var tasks []sim.Task
			for _, name := range mix.Members {
				p, perr := w.r.Cache().Get(name, c.cfg.Machine)
				if perr != nil {
					err = perr
					break
				}
				tasks = append(tasks, sim.Task{Name: name, Prog: p})
			}
			tr.close(id)
			if err == nil {
				id = tr.open("sim.solo", root, i)
				res, err = sim.Run(c.cfg, tasks)
				tr.close(id)
				if err == nil {
					tr.annotate(id, 0, res.Cycles)
				}
			}
		}
		tr.close(root)
	}
	return []sweep.Result{{Index: i, Job: job, Res: res, Err: err}}
}

func (w *soloStall) settle(i int, res []sweep.Result) []string {
	k := i % len(w.calls)
	if k >= len(w.first) { // the first round only collects
		w.first = append(w.first, resultBytes(res[0]))
		w.firstR = append(w.firstR, res[0])
		return nil
	}
	if jobFailure(res[0]) == "" && !bytes.Equal(resultBytes(res[0]), w.first[k]) {
		return []string{fmt.Sprintf("op %d: %s differs from the first round", i, res[0].Job.Describe())}
	}
	return nil
}

func (w *soloStall) check() (int, []string) {
	r := &rng{s: w.o.seed ^ 0xc5e}
	var jobs []sweep.Job
	var got []*sim.Result
	for k := 0; k < checkSample && len(w.firstR) > 0; k++ {
		x := w.firstR[r.intn(len(w.firstR))]
		if x.Res == nil {
			continue
		}
		jobs = append(jobs, x.Job)
		got = append(got, x.Res)
	}
	return len(jobs), refCheck(w.r.Cache(), jobs, got)
}

func (w *soloStall) sample() []sweep.Job {
	var jobs []sweep.Job
	for _, c := range w.calls[:serviceJobsPerRequest] {
		jobs = append(jobs, w.job(c))
	}
	return jobs
}

func (w *soloStall) kernels() []string {
	var jobs []sweep.Job
	for _, c := range w.calls {
		jobs = append(jobs, w.job(c))
	}
	return distinctKernels(jobs)
}

func (w *soloStall) paths() layerPaths { return layerPaths{solo: true} }

func (w *soloStall) compileCache() *vliwmt.CompileCache { return w.r.Cache() }

func (w *soloStall) close() {}

// ---- service-mixed ------------------------------------------------------

// serviceMixed is one client running a closed loop of Client.SweepJobs
// over loopback against an in-process server with one engine worker and
// a disk result store. The set-up stores a palette of jobs; each request
// carries eight palette jobs, and every eighth request replaces one with
// a fresh seed, which simulates and is persisted.
type serviceMixed struct {
	o        options
	work     string
	n        int
	palette  []sweep.Job
	requests [][]int     // palette indices per request; -1 marks the fresh job
	fresh    []sweep.Job // per request, the fresh job (zero when none)
	want     [][]byte    // palette results as the set-up's fill returned them
	dirs     int
	dir      string
	srv      *server.Server
	ts       *httptest.Server
	client   *vliwmt.Client
	cc       *vliwmt.CompileCache // the traced executor's compile cache
	freshRes map[int]sweep.Result // fresh results by request, for the check
}

// genCombos are the Table 2 class combinations the palette's generated
// mixes draw from.
var genCombos = []string{"LLLL", "LMMH", "MMMM", "LLMM", "LLMH", "LLHH", "MMHH", "LHHH", "HHHH"}

func newServiceMixed(o options, work string, rounds int, instr int64) (*serviceMixed, error) {
	r := &rng{s: o.seed ^ 0x5e7}
	schemes := merge.PaperSchemes4()
	w := &serviceMixed{o: o, work: work, n: rounds}
	for k := 0; k < servicePalette; k++ {
		name, err := wgen.MixName(genCombos[r.intn(len(genCombos))], r.next()%1_000_000)
		if err != nil {
			return nil, err
		}
		mix, err := wl.MixByName(name)
		if err != nil {
			return nil, err
		}
		scheme := schemes[r.intn(len(schemes))]
		w.palette = append(w.palette, sweep.Job{
			Label:           name + "/" + scheme,
			Scheme:          scheme,
			Benchmarks:      mix.Members[:],
			Machine:         isa.Default(),
			ICache:          cache.DefaultConfig(),
			DCache:          cache.DefaultConfig(),
			InstrLimit:      instr,
			TimesliceCycles: max(1000, instr/100),
			Seed:            r.next() | 1,
		})
	}
	total := rounds * serviceRequestsPerRound
	w.requests = make([][]int, total)
	w.fresh = make([]sweep.Job, total)
	for q := range w.requests {
		perm := make([]int, len(w.palette))
		for k := range perm {
			perm[k] = k
		}
		for k := 0; k < serviceJobsPerRequest; k++ { // partial Fisher-Yates
			j := k + r.intn(len(perm)-k)
			perm[k], perm[j] = perm[j], perm[k]
		}
		w.requests[q] = perm[:serviceJobsPerRequest]
		if q%serviceFreshEvery == serviceFreshEvery-1 {
			slot := r.intn(serviceJobsPerRequest)
			f := w.palette[w.requests[q][slot]]
			f.Seed = r.next() | 1
			f.Label += fmt.Sprintf("/fresh%d", q)
			w.fresh[q] = f
			w.requests[q][slot] = -1
		}
	}
	return w, nil
}

func (w *serviceMixed) rounds() (int, int) { return w.n, serviceRequestsPerRound }

// jobsOf expands request q into its jobs.
func (w *serviceMixed) jobsOf(q int) []sweep.Job {
	jobs := make([]sweep.Job, 0, serviceJobsPerRequest)
	for _, k := range w.requests[q] {
		if k < 0 {
			jobs = append(jobs, w.fresh[q])
		} else {
			jobs = append(jobs, w.palette[k])
		}
	}
	return jobs
}

func (w *serviceMixed) setUp(tr *tracer) error {
	w.close()
	w.dir = freshDir(w.work, "store", &w.dirs)
	store := vliwmt.OpenResultStore(w.dir)
	opts := server.Options{Workers: 1, Store: store, DisableDebug: true}
	if tr != nil {
		w.cc = vliwmt.NewCompileCache()
		opts.Execute = tracedExecutor(tr, w.cc, store)
	}
	w.srv = server.New(opts)
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = vliwmt.NewClient(w.ts.URL)
	w.freshRes = map[int]sweep.Result{}

	// Fill the store through the service, which also compiles every
	// palette kernel into the server's compile cache.
	ctx := context.Background()
	w.want = make([][]byte, len(w.palette))
	for k := 0; k < len(w.palette); k += serviceJobsPerRequest {
		chunk := w.palette[k:min(k+serviceJobsPerRequest, len(w.palette))]
		res, err := w.client.SweepJobs(ctx, chunk, &vliwmt.SweepOptions{Workers: 1})
		if err != nil {
			return fmt.Errorf("store fill: %w", err)
		}
		for m, r := range res {
			if msg := jobFailure(r); msg != "" {
				return fmt.Errorf("store fill: %s: %s", r.Job.Describe(), msg)
			}
			w.want[k+m] = resultBytes(r)
		}
	}
	// Warm up with the all-hit requests that open the list.
	for q := 0; q < serviceFreshEvery-1 && q < len(w.requests); q++ {
		if _, err := w.client.SweepJobs(ctx, w.jobsOf(q), &vliwmt.SweepOptions{Workers: 1}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *serviceMixed) op(i int, tr *tracer) []sweep.Result {
	jobs := w.jobsOf(i)
	if w.o.injectFailure && i == 0 {
		jobs[0].Scheme, jobs[0].Label = badScheme, "injected/"+badScheme
	}
	var root int
	if tr != nil {
		root = tr.open("request", 0, i)
		tr.setRequest(i, root)
	}
	res, err := w.client.SweepJobs(context.Background(), jobs, &vliwmt.SweepOptions{Workers: 1})
	if tr != nil {
		tr.close(root)
	}
	if err != nil && len(res) == 0 {
		return failAll(jobs, fmt.Sprintf("request failed: %v", err))
	}
	return res
}

func (w *serviceMixed) settle(i int, res []sweep.Result) []string {
	var bad []string
	for k, r := range res {
		if jobFailure(r) != "" || k >= len(w.requests[i]) {
			continue
		}
		p := w.requests[i][k]
		if p < 0 {
			w.freshRes[i] = r
			continue
		}
		if !bytes.Equal(resultBytes(r), w.want[p]) {
			bad = append(bad, fmt.Sprintf("request %d: %s differs from the stored palette result", i, r.Job.Describe()))
		}
	}
	return bad
}

// check re-runs a seeded sample of palette and fresh jobs in-process and
// compares them with what the service returned.
func (w *serviceMixed) check() (int, []string) {
	r := &rng{s: w.o.seed ^ 0xc4ec}
	var jobs []sweep.Job
	var got [][]byte
	for k := 0; k < checkSample; k++ {
		p := r.intn(len(w.palette))
		jobs = append(jobs, w.palette[p])
		got = append(got, w.want[p])
	}
	var reqs []int
	for q := range w.freshRes {
		reqs = append(reqs, q)
	}
	sort.Ints(reqs)
	for k := 0; k < checkSample && len(reqs) > 0; k++ {
		q := reqs[r.intn(len(reqs))]
		jobs = append(jobs, w.freshRes[q].Job)
		got = append(got, resultBytes(w.freshRes[q]))
	}
	res, err := vliwmt.NewRunner(vliwmt.WithWorkers(1)).SweepJobs(context.Background(), jobs)
	if err != nil {
		return len(jobs), []string{fmt.Sprintf("in-process check: %v", err)}
	}
	var bad []string
	for k, x := range res {
		if !bytes.Equal(resultBytes(x), got[k]) {
			bad = append(bad, fmt.Sprintf("in-process check: %s differs from the service's result", x.Job.Describe()))
		}
	}
	return len(jobs), bad
}

func (w *serviceMixed) sample() []sweep.Job {
	var jobs []sweep.Job
	for _, k := range w.requests[0] {
		jobs = append(jobs, w.palette[max(k, 0)])
	}
	return jobs
}

func (w *serviceMixed) kernels() []string { return distinctKernels(w.palette) }

func (w *serviceMixed) paths() layerPaths {
	return layerPaths{solo: true, storeHit: true, storeWrite: true, sweep: true, server: true}
}

// compileCache is the traced executor's cache; the untraced server's
// own cache is not reachable from outside.
func (w *serviceMixed) compileCache() *vliwmt.CompileCache { return w.cc }

func (w *serviceMixed) close() {
	if w.ts != nil {
		w.ts.Close()
		w.srv.Close()
		w.ts, w.srv = nil, nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
