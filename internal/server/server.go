// Package server is the HTTP transport of the sweep engine: a thin,
// stateless-protocol front-end over the vliwmt.Runner session API.
//
//	POST   /v1/sweeps            submit a grid or job set (202; ?wait=1 blocks)
//	GET    /v1/sweeps            list sweeps
//	GET    /v1/sweeps/{id}        status, plus ordered results once terminal
//	GET    /v1/sweeps/{id}/events NDJSON progress stream (replay + live); the
//	                             terminal event carries the final status;
//	                             ?results=false leaves per-job results off
//	                             the progress events
//	DELETE /v1/sweeps/{id}        cancel a running sweep
//	GET    /v1/store             result-store stats (entries, hits, misses)
//	DELETE /v1/store             clear the result store
//	GET    /v1/healthz           structured health (build, load, store stats)
//	GET    /healthz              plain-text liveness probe
//
// Bodies are the versioned wire documents of internal/api, written as
// compact (unindented) JSON. A client needs two exchanges per sweep:
// POST to submit, then the event stream, whose terminal event carries
// the same status document GET /v1/sweeps/{id} returns. Every sweep
// shares one compile cache for the life of the server; each runs under
// a context cancelled by DELETE, by client disconnect (in wait mode),
// or by server Close. The engine's determinism contract holds across
// the wire: results are index-ordered, seed-derived and bit-identical
// to an in-process run at any worker count.
//
// With a result directory configured, every sweep also shares one
// persistent result store: completed jobs are content-addressed on
// disk, identical submitted jobs (in any grid, from any client) are
// served from it without simulating, and — because the store outlives
// the process — a restarted server keeps serving results computed by
// its predecessor. Cache hits are visible per job (results carry
// "cached": true in /events and status documents) and per sweep (the
// status's "cache_hits" count).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"vliwmt"
	"vliwmt/internal/api"
	"vliwmt/internal/sweep"
	"vliwmt/internal/telemetry"
)

// Executor runs a submitted job set on behalf of the server and
// returns index-ordered results under the engine's determinism
// contract. workers is the request's pool-size hint; progress must be
// called with monotonic done counts as jobs complete. The default
// executor is a vliwmt.Runner on the server's shared compile cache
// and store; perfbench's traced run (perfbench/trace.go) substitutes a
// sweep engine with a timed store to split each job into spans.
type Executor func(ctx context.Context, jobs []sweep.Job, workers int, progress sweep.ProgressFunc) ([]sweep.Result, error)

// Options configures a Server.
type Options struct {
	// Workers is the default per-sweep worker pool size when a request
	// does not ask for one; 0 selects runtime.NumCPU().
	Workers int
	// Store, when set, is the persistent result store (see
	// vliwmt.OpenResultStore): completed jobs are content-addressed on
	// disk, identical submitted jobs are served without simulating, and
	// the cache survives server restarts. A caller that also reads the
	// store directly shares this one handle with the server's /v1/store
	// endpoints. Nil disables persistence and /v1/store answers 404.
	Store *vliwmt.ResultStore
	// Execute substitutes the sweep execution strategy; nil selects the
	// in-process Runner. See Executor.
	Execute Executor
	// Log receives request and sweep lifecycle lines; nil disables.
	Log *log.Logger
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
	cache   *vliwmt.CompileCache
	store   *vliwmt.ResultStore // nil when persistence is disabled
	started time.Time
	ctx     context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	runs   map[string]*run
	order  []string // submission order, for listing
	nextID int
}

// New returns a Server; callers serve its Handler and Close it on
// shutdown (cancelling any in-flight sweeps).
func New(opts Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		cache:   vliwmt.NewCompileCache(),
		started: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		runs:    map[string]*run{},
		store:   opts.Store,
	}
	return s
}

// Close cancels every in-flight sweep.
func (s *Server) Close() { s.cancel() }

// Handler returns the HTTP handler serving the v1 API, plus (unless
// Options.DisableDebug) the observability endpoints: GET /metrics in
// Prometheus text format over the process-wide telemetry registry, and
// the standard net/http/pprof handlers under /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", instrumented("healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("GET /v1/healthz", instrumented("healthz_v1", s.handleHealth))
	mux.HandleFunc("POST /v1/sweeps", instrumented("submit", s.handleSubmit))
	mux.HandleFunc("GET /v1/sweeps", instrumented("list", s.handleList))
	mux.HandleFunc("GET /v1/sweeps/{id}", instrumented("status", s.handleStatus))
	mux.HandleFunc("GET /v1/sweeps/{id}/events", instrumented("events", s.handleEvents))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", instrumented("cancel", s.handleCancel))
	mux.HandleFunc("GET /v1/store", instrumented("store_status", s.handleStoreStatus))
	mux.HandleFunc("DELETE /v1/store", instrumented("store_clear", s.handleStoreClear))
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

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log.Printf(format, args...)
	}
}

// run is one submitted sweep: lifecycle state, a replayable event log,
// and live event subscribers. Progress callbacks are serialised by the
// engine; everything shared is guarded by mu.
type run struct {
	id      string
	total   int
	started time.Time
	cancel  context.CancelFunc

	mu        sync.Mutex
	state     api.State
	done      int
	cacheHits int
	errs      int
	summary   *api.SweepSummary // set once terminal
	events    []api.Event
	subs      map[chan api.Event]struct{}
	results   []sweep.Result
	err       error
}

func newRun(id string, total int, cancel context.CancelFunc) *run {
	return &run{
		id:      id,
		total:   total,
		started: time.Now(),
		cancel:  cancel,
		state:   api.StateRunning,
		subs:    map[chan api.Event]struct{}{},
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

// progress is the Runner's progress sink. Cache hits and errors are
// counted here so the accounting covers every job, streamed or not:
// the event's result carries the per-job "cached" flag and error
// string (also lifted to the event's top-level "err" so stream
// consumers need not dig), and the status document aggregates both.
func (r *run) progress(done, total int, res sweep.Result) {
	ar := api.ResultFrom(res)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done = done
	if res.Cached {
		r.cacheHits++
	}
	if res.Err != nil {
		r.errs++
	}
	r.broadcast(api.Event{Done: done, Total: total, Result: &ar, Err: ar.Err})
}

// finish records the terminal state, computes the lifecycle summary
// and emits the final event. The per-job replay log is dropped at that
// point — the terminal event carries the full status document when it
// is written to a stream, so a subscriber arriving after completion
// gets every result from that one event.
func (r *run) finish(results []sweep.Result, err error) {
	summary := api.SummaryFrom(sweep.Summarize(results, time.Since(r.started)))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results = results
	r.err = err
	r.summary = summary
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
// terminal run's results are attached, ordered by job index; listing
// and logging pass false to skip that conversion.
func (r *run) status(withResults bool) api.SweepStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := api.SweepStatus{
		Version:   api.Version,
		ID:        r.id,
		State:     r.state,
		Done:      r.done,
		Total:     r.total,
		CacheHits: r.cacheHits,
		Errors:    r.errs,
	}
	if r.state.Terminal() {
		st.Summary = r.summary
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
	id := fmt.Sprintf("s%06d", s.nextID)
	ru := newRun(id, total, cancel)
	s.runs[id] = ru
	s.order = append(s.order, id)
	return ru
}

// execute runs the job set — on a per-sweep Runner sharing the
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
		exec = s.runnerExecute
	}
	results, err := exec(ctx, jobs, workers, ru.progress)
	ru.finish(results, err)
	st := ru.status(false)
	s.logf("sweep %s: %s (%d/%d jobs, %d from store, %d errors)", ru.id, st.State, st.Done, st.Total, st.CacheHits, st.Errors)
}

// runnerExecute is the default Executor: an in-process vliwmt.Runner
// on the server's shared compile cache and result store.
func (s *Server) runnerExecute(ctx context.Context, jobs []sweep.Job, workers int, progress sweep.ProgressFunc) ([]sweep.Result, error) {
	runner := vliwmt.NewRunner(
		vliwmt.WithWorkers(workers),
		vliwmt.WithCache(s.cache),
		vliwmt.WithProgress(progress),
		vliwmt.WithStore(s.store),
	)
	return runner.SweepJobs(ctx, jobs)
}

// handleHealth serves the structured liveness document: build
// identity, active-sweep load and store traffic counters — everything
// a load balancer or monitor needs, without the disk walk of
// GET /v1/store.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := api.Health{
		Service:      "vliwserve",
		GoVersion:    runtime.Version(),
		Revision:     buildRevision(),
		ActiveSweeps: int(metActiveSweeps.Value()),
		UptimeSec:    time.Since(s.started).Seconds(),
	}
	if s.store != nil {
		st := s.store.Stats()
		h.Store = &api.StoreStats{Hits: st.Hits, Misses: st.Misses, Puts: st.Puts}
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

// handleStoreStatus reports the shared result store: entries on disk
// plus this server's lifetime hit/miss/put counters. Without a
// configured result directory there is no store to report on.
func (s *Server) handleStoreStatus(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		httpError(w, http.StatusNotFound, "no result store configured (start the server with a result directory)")
		return
	}
	st := api.StoreStatus{Version: api.Version}
	stats := s.store.Stats()
	st.Hits, st.Misses, st.Puts = stats.Hits, stats.Misses, stats.Puts
	n, err := s.store.Len()
	st.Entries = n
	if err != nil {
		st.Error = err.Error()
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStoreClear empties the result store: every later job misses
// and re-simulates. The traffic counters are lifetime counters and are
// not reset.
func (s *Server) handleStoreClear(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		httpError(w, http.StatusNotFound, "no result store configured (start the server with a result directory)")
		return
	}
	if err := s.store.Clear(); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.logf("store: cleared")
	writeJSON(w, http.StatusOK, api.StoreStatus{Version: api.Version})
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

// handleSubmit accepts a sweep request: a grid (expanded server-side
// with the same defaulting as in-process Grid.Jobs) or explicit jobs.
// By default the sweep runs asynchronously and a 202 with the run ID
// comes back immediately; with ?wait=1 the handler blocks until the
// sweep finishes and the client disconnecting cancels it (the request
// context propagates into the engine).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := api.DecodeSweepRequest(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var jobs []sweep.Job
	if req.Grid != nil {
		if jobs, err = req.Grid.Jobs(); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	jobs = append(jobs, req.Jobs...)
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
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

	// Absent or an explicit false value ("0", "false") stays async.
	wait, err := queryBool("wait", r.URL.Query().Get("wait"), false)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The sweep context descends from the server (so Close cancels every
	// run); in wait mode it also descends from the request, so a client
	// disconnect cancels the sweep mid-flight.
	base := s.ctx
	if wait {
		base = r.Context()
	}
	ctx, cancel := context.WithCancel(base)
	ru := s.register(len(jobs), cancel)
	metSweepsSubmitted.Inc()
	s.logf("sweep %s: submitted, %d jobs (workers=%d, wait=%v)", ru.id, len(jobs), workers, wait)

	if wait {
		// Server shutdown must still cancel a wait-mode sweep, whose
		// context descends from the request rather than the server.
		stop := context.AfterFunc(s.ctx, cancel)
		defer stop()
		s.execute(ctx, ru, jobs, workers)
		writeJSON(w, http.StatusOK, ru.status(true))
		return
	}
	go s.execute(ctx, ru, jobs, workers)
	writeJSON(w, http.StatusAccepted, ru.status(false))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.runs[id])
	}
	s.mu.Unlock()
	list := struct {
		Version int               `json:"version"`
		Sweeps  []api.SweepStatus `json:"sweeps"`
	}{Version: api.Version}
	for _, ru := range runs {
		// Listing is a summary; fetch one sweep for its results.
		list.Sweeps = append(list.Sweeps, ru.status(false))
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	ru := s.get(r.PathValue("id"))
	if ru == nil {
		httpError(w, http.StatusNotFound, "no such sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, ru.status(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	ru := s.get(r.PathValue("id"))
	if ru == nil {
		httpError(w, http.StatusNotFound, "no such sweep %q", r.PathValue("id"))
		return
	}
	ru.cancel()
	s.logf("sweep %s: cancel requested", ru.id)
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
// DELETE, or submit with ?wait=1, for that).
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
