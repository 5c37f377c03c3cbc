// Package server is the HTTP transport of the sweep engine: each
// submitted sweep runs on a sweep.Engine that the server configures
// with its shared compile cache and result store.
//
//	POST   /v1/sweeps            submit a grid or job set (202 + sweep ID)
//	GET    /v1/sweeps/{id}/events NDJSON progress stream (replay + live); the
//	                             terminal event carries the final status
//	                             and ordered results;
//	                             ?results=false leaves per-job results off
//	                             the progress events
//	DELETE /v1/sweeps/{id}        cancel a running sweep
//	GET    /v1/healthz           structured health (build, load)
//
// Bodies are the versioned wire documents of internal/api, written as
// compact (unindented) JSON. A client needs two exchanges per sweep:
// POST to submit, then the event stream, whose terminal event carries
// the final status with the ordered results; a client whose stream
// breaks attaches again and is replayed the sweep's history. Sweep IDs
// are opaque and unique across server processes, so a client that
// re-attaches to a restarted server gets a 404, never another sweep.
// A request whose jobs together claim more than MaxRequestInstrs
// instructions is a 413. Every sweep shares one compile cache for the
// life of the server; each runs under a context cancelled by DELETE or
// by server Close. The engine's determinism contract holds across the
// wire: results are index-ordered, seed-derived and bit-identical to an
// in-process run at any worker count.
//
// With Options.Store set, every sweep also shares one persistent
// result store: completed jobs are content-addressed on disk,
// identical submitted jobs (in any grid, from any client) are served
// from it without simulating, and — because the store outlives the
// process — a restarted server keeps serving results computed by its
// predecessor. Cache hits are visible per job (results carry
// "cached": true); a sweep's roll-up is sweep.Summarize over its
// results, and the process's store traffic is on /metrics.
//
// Lifecycle lines (sweep submitted, finished, cancel requested) are
// structured records on telemetry.TraceLogger, and a sweep's records
// carry the same "sweep" attribute as the engine's.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"vliwmt/internal/api"
	"vliwmt/internal/resultstore"
	"vliwmt/internal/sweep"
	"vliwmt/internal/telemetry"
)

// Executor runs a submitted job set on behalf of the server and
// returns index-ordered results under the engine's determinism
// contract. workers is the request's pool-size hint; progress must be
// called with monotonic done counts as jobs complete. The default
// executor is a sweep.Engine on the server's shared compile cache
// and store; perfbench's traced run (perfbench/trace.go) substitutes a
// sweep engine with a timed store to split each job into spans.
type Executor func(ctx context.Context, jobs []sweep.Job, workers int, progress sweep.ProgressFunc) ([]sweep.Result, error)

// Options configures a Server.
type Options struct {
	// Workers is the default per-sweep worker pool size when a request
	// does not ask for one; 0 selects runtime.NumCPU().
	Workers int
	// Store, when set, is the persistent result store (see
	// resultstore.Open): completed jobs are content-addressed on
	// disk, identical submitted jobs are served without simulating, and
	// the cache survives server restarts; its traffic counters are on
	// /metrics. Nil disables persistence.
	Store *resultstore.Store
	// Execute substitutes the sweep execution strategy; nil selects the
	// in-process engine. See Executor.
	Execute Executor
	// DisableDebug removes the observability endpoints — GET /metrics
	// (Prometheus text format) and /debug/pprof/ — from the handler.
	// They are on by default: both are read-only, and a sweep server
	// without "what is it doing right now" answers is undebuggable.
	DisableDebug bool
}

// Server owns the sweep runs, the shared compile cache and the shared
// result store.
type Server struct {
	opts    Options
	cache   *sweep.CompileCache
	store   *resultstore.Store // nil when persistence is disabled
	started time.Time
	// idPrefix starts every sweep ID: 64 random bits per Server, so
	// IDs do not repeat across restarts.
	idPrefix string
	ctx      context.Context
	cancel   context.CancelFunc

	mu     sync.Mutex
	runs   map[string]*run
	order  []string // submission order, for eviction
	nextID int
}

// New returns a Server; callers serve its Handler and Close it on
// shutdown (cancelling any in-flight sweeps).
func New(opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opts:     opts,
		cache:    sweep.NewCompileCache(),
		started:  time.Now(),
		ctx:      ctx,
		cancel:   cancel,
		runs:     map[string]*run{},
		store:    opts.Store,
		idPrefix: fmt.Sprintf("%016x", rand.Uint64()),
	}
}

// Close cancels every in-flight sweep.
func (s *Server) Close() { s.cancel() }

// Handler returns the HTTP handler serving the v1 API, plus (unless
// Options.DisableDebug) the observability endpoints: GET /metrics in
// Prometheus text format over the process-wide telemetry registry, and
// the standard net/http/pprof handlers under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", instrumented("healthz_v1", s.handleHealth))
	mux.HandleFunc("POST /v1/sweeps", instrumented("submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/sweeps/{id}/events", instrumented("events", s.handleEvents))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", instrumented("cancel", s.handleCancel))
	if !s.opts.DisableDebug {
		mux.HandleFunc("GET /metrics", instrumented("metrics", handleMetrics))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleMetrics renders the process-wide telemetry registry in the
// Prometheus text exposition format: sweep, store, simulator and
// server instruments in one scrape.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.Default().WritePrometheus(w)
}

// run is one submitted sweep: lifecycle state, a replayable event log,
// and live event subscribers. Progress callbacks are serialised by the
// engine; everything shared is guarded by mu.
type run struct {
	id     string
	total  int
	cancel context.CancelFunc

	mu      sync.Mutex
	state   api.State
	done    int
	events  []api.Event
	subs    map[chan api.Event]struct{}
	results []sweep.Result
	err     error
}

func newRun(id string, total int, cancel context.CancelFunc) *run {
	return &run{
		id:     id,
		total:  total,
		cancel: cancel,
		state:  api.StateRunning,
		subs:   map[chan api.Event]struct{}{},
	}
}

// broadcast appends ev to the replay log and fans it out. Subscriber
// channels are sized to hold every possible event, so sends never block
// the engine; the default arm is pure defence (its drops are counted,
// so "should never happen" is a checkable claim on /metrics).
func (r *run) broadcast(ev api.Event) {
	r.events = append(r.events, ev)
	for ch := range r.subs {
		select {
		case ch <- ev:
			metEventsEmitted.Inc()
		default:
			metEventsDropped.Inc()
		}
	}
}

// progress is the engine's progress sink: the event's result carries
// the per-job "cached" flag and error string (also lifted to the
// event's top-level "err" so stream consumers need not dig).
func (r *run) progress(done, total int, res sweep.Result) {
	ar := api.ResultFrom(res)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done = done
	r.broadcast(api.Event{Done: done, Total: total, Result: &ar, Err: ar.Err})
}

// finish records the terminal state and emits the final event. The
// per-job replay log is dropped at that point — the terminal event
// carries the full status document when it is written to a stream, so
// a subscriber arriving after completion gets every result from that
// one event.
func (r *run) finish(results []sweep.Result, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results = results
	r.err = err
	switch {
	case err == nil:
		r.state = api.StateDone
	case errors.Is(err, context.Canceled):
		r.state = api.StateCanceled
	default:
		r.state = api.StateFailed
	}
	r.broadcast(api.Event{Done: r.done, Total: r.total, State: r.state})
	r.events = r.events[len(r.events)-1:]
}

// terminal reports whether the run has finished.
func (r *run) terminal() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state.Terminal()
}

// subscribe returns a replay of everything emitted so far plus a
// channel for subsequent events. The channel is buffered for the whole
// stream (total job events + terminal), so broadcasters never block.
func (r *run) subscribe() (replay []api.Event, ch chan api.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	replay = append([]api.Event(nil), r.events...)
	ch = make(chan api.Event, r.total+2)
	r.subs[ch] = struct{}{}
	return replay, ch
}

func (r *run) unsubscribe(ch chan api.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.subs, ch)
}

// status snapshots the run as a wire document. With withResults, a
// terminal run's results are attached, ordered by job index; the
// submit and cancel replies and logging pass false to skip that
// conversion.
func (r *run) status(withResults bool) api.SweepStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := api.SweepStatus{
		Version: api.Version,
		ID:      r.id,
		State:   r.state,
		Done:    r.done,
		Total:   r.total,
	}
	if r.state.Terminal() {
		if withResults {
			st.Results = api.ResultsFrom(r.results)
		}
		if r.err != nil {
			st.Error = r.err.Error()
		}
	}
	return st
}

func (s *Server) get(id string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// maxRetainedRuns bounds the runs map of a long-lived server: once
// exceeded, the oldest terminal runs (and their retained results) are
// evicted. Running sweeps are never evicted.
const maxRetainedRuns = 256

func (s *Server) register(total int, cancel context.CancelFunc) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	if excess := len(s.order) - maxRetainedRuns + 1; excess > 0 {
		kept := make([]string, 0, len(s.order))
		for _, oid := range s.order {
			if excess > 0 && s.runs[oid].terminal() {
				delete(s.runs, oid)
				excess--
				continue
			}
			kept = append(kept, oid)
		}
		s.order = kept
	}
	s.nextID++
	id := fmt.Sprintf("%s-%06d", s.idPrefix, s.nextID)
	ru := newRun(id, total, cancel)
	s.runs[id] = ru
	s.order = append(s.order, id)
	return ru
}

// execute runs the job set — on a per-sweep engine sharing the
// server's compile cache, or on the configured Executor — then records
// the terminal state. It releases the run's context on return so
// finished sweeps don't stay registered as children of the server
// context. The run's ID rides the context as the telemetry sweep ID, so
// the engine's span events (and anything below them) are attributable
// to this submission.
func (s *Server) execute(ctx context.Context, ru *run, jobs []sweep.Job, workers int) {
	defer ru.cancel()
	metActiveSweeps.Add(1)
	defer metActiveSweeps.Add(-1)
	ctx = telemetry.WithSweepID(ctx, ru.id)
	exec := s.opts.Execute
	if exec == nil {
		exec = s.engineExecute
	}
	results, err := exec(ctx, jobs, workers, ru.progress)
	ru.finish(results, err)
	st := ru.status(false)
	telemetry.TraceLogger().Info("sweep finished", "sweep", ru.id, "state", string(st.State),
		"done", st.Done, "total", st.Total)
}

// engineExecute is the default Executor: a sweep.Engine on the
// server's shared compile cache and result store.
func (s *Server) engineExecute(ctx context.Context, jobs []sweep.Job, workers int, progress sweep.ProgressFunc) ([]sweep.Result, error) {
	e := sweep.New(workers)
	e.SetCache(s.cache)
	e.SetProgress(progress)
	if s.store != nil {
		e.SetStore(s.store)
	}
	return e.Run(ctx, jobs)
}

// activeSweeps counts this server's runs that have not reached a
// terminal state. A run turns terminal before its terminal event is
// broadcast, so a client that has read that event counts it no more.
func (s *Server) activeSweeps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ru := range s.runs {
		if !ru.terminal() {
			n++
		}
	}
	return n
}

// handleHealth serves the structured liveness document: build
// identity and this server's active sweeps — everything a load
// balancer or monitor needs.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := api.Health{
		Service:      "vliwserve",
		GoVersion:    runtime.Version(),
		Revision:     buildRevision(),
		ActiveSweeps: s.activeSweeps(),
		UptimeSec:    time.Since(s.started).Seconds(),
	}
	writeJSON(w, http.StatusOK, withVersion(h))
}

// withVersion stamps the wire version on a health document (writeJSON
// has no versioning hook of its own).
func withVersion(h api.Health) api.Health {
	h.Version = api.Version
	return h
}

// buildRevision returns the embedded VCS commit of the binary, or ""
// for builds without VCS stamping (tests, go run from a dirty tree).
func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			return kv.Value
		}
	}
	return ""
}

// queryBool interprets a boolean query parameter: absent means def,
// anything else must parse as a boolean ("1", "true", "0", "false",
// ...).
func queryBool(name, v string, def bool) (bool, error) {
	if v == "" {
		return def, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("invalid %s=%q (want a boolean)", name, v)
	}
	return b, nil
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// writeJSON writes v as one line of compact JSON. Indenting a status
// document nearly doubles it (every result repeats its job and thread
// records), and its readers are programs; pipe through jq to read one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// MaxRequestInstrs bounds the work one sweep request may claim: the
// sum of its jobs' per-thread instruction budgets. It admits about
// seven of the paper's full-budget Figure 10 grids (144 jobs × 100M
// instructions each) and rejects, say, sweep.MaxGridJobs jobs of 10^9
// instructions before any of them compiles or runs.
const MaxRequestInstrs = 100_000_000_000

// admit checks a request's summed instruction budget against
// MaxRequestInstrs. Each budget is compared with the room left before
// it is added, so the sum cannot overflow; a non-positive budget adds
// nothing here and fails Job.Validate.
func admit(jobs []sweep.Job) error {
	var sum int64
	for _, j := range jobs {
		if j.InstrLimit > MaxRequestInstrs-sum {
			return fmt.Errorf("sweep request of %d jobs exceeds the admission limit of %d instructions, summed over the jobs' instr_limit", len(jobs), int64(MaxRequestInstrs))
		}
		sum += max(j.InstrLimit, 0)
	}
	return nil
}

// handleSubmit accepts a sweep request — a grid (expanded server-side
// with the same defaulting as in-process Grid.Jobs), explicit jobs, or
// both — starts it and answers 202 with the run ID. The sweep context
// descends from the server's, so Close cancels every run; the client
// cancels one with DELETE. A request whose jobs together claim more
// than MaxRequestInstrs is a 413, decided before anything compiles.
// Every job must then pass Job.Validate on the server's compile cache,
// so a job whose kernels do not compile for its machine is a 400, not
// a failed job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := api.DecodeSweepRequest(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	jobs, err := req.Expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := admit(jobs); err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	for i, j := range jobs {
		if err := j.Validate(s.cache); err != nil {
			httpError(w, http.StatusBadRequest, "job %d: %v", i, err)
			return
		}
	}
	if len(jobs) == 0 {
		httpError(w, http.StatusBadRequest, "sweep request expanded to zero jobs")
		return
	}
	workers := req.Workers
	if workers <= 0 {
		workers = s.opts.Workers
	}

	ctx, cancel := context.WithCancel(s.ctx)
	ru := s.register(len(jobs), cancel)
	metSweepsSubmitted.Inc()
	telemetry.TraceLogger().Info("sweep submitted", "sweep", ru.id, "jobs", len(jobs), "workers", workers)
	go s.execute(ctx, ru, jobs, workers)
	writeJSON(w, http.StatusAccepted, ru.status(false))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	ru := s.get(r.PathValue("id"))
	if ru == nil {
		httpError(w, http.StatusNotFound, "no such sweep %q", r.PathValue("id"))
		return
	}
	ru.cancel()
	telemetry.TraceLogger().Info("sweep cancel requested", "sweep", ru.id)
	writeJSON(w, http.StatusAccepted, ru.status(false))
}

// handleEvents streams the run's progress as NDJSON: the replay first
// (per-job history while running; just the terminal event once the
// sweep has finished), then live events until the terminal event or
// the client disconnects. The terminal event is written with the run's
// final status attached — built here, at emit time, rather than kept
// in the replay log, so a retained run holds its results once. With
// ?results=false the per-job events keep their done/total counts and
// error but leave out the result: a client that takes every result
// from the terminal status need not receive (and decode) each twice.
// Disconnecting from the event stream does not cancel the sweep (use
// DELETE for that).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ru := s.get(r.PathValue("id"))
	if ru == nil {
		httpError(w, http.StatusNotFound, "no such sweep %q", r.PathValue("id"))
		return
	}
	withResults, err := queryBool("results", r.URL.Query().Get("results"), true)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	replay, ch := ru.subscribe()
	defer ru.unsubscribe(ch)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev api.Event) bool {
		terminal := ev.Terminal()
		if terminal {
			st := ru.status(true)
			ev.Status = &st
		} else if !withResults {
			ev.Result = nil
		}
		if err := enc.Encode(ev); err != nil {
			return false
		}
		// The terminal event is not flushed on its own: the handler
		// returns next, so the event and the end of the body go out
		// in one write, and a client that stops reading at the event
		// has usually read the whole response and keeps its
		// connection.
		if fl != nil && !terminal {
			fl.Flush()
		}
		return !terminal
	}
	for _, ev := range replay {
		if !emit(ev) {
			return
		}
	}
	for {
		select {
		case ev := <-ch:
			if !emit(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
