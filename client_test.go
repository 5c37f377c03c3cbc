package vliwmt_test

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vliwmt"
	"vliwmt/internal/api"
	"vliwmt/internal/server"
	"vliwmt/internal/sweep"
)

// cutter is a ResponseWriter that aborts the connection after limit
// newlines — a mid-stream disconnect as the client sees it.
type cutter struct {
	http.ResponseWriter
	limit int
	lines int
}

func (c *cutter) Write(b []byte) (int, error) {
	if c.lines >= c.limit {
		panic(http.ErrAbortHandler)
	}
	c.lines += strings.Count(string(b), "\n")
	return c.ResponseWriter.Write(b)
}

func (c *cutter) Flush() {
	if fl, ok := c.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// TestClientFollowDisconnectFallsBackToPolling cuts the NDJSON event
// stream after two lines: the client must fall back to polling and
// still deliver ordered, complete results with exactly one progress
// callback per job.
func TestClientFollowDisconnectFallsBackToPolling(t *testing.T) {
	g := runnerTestGrid()
	local, err := vliwmt.Sweep(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Options{})
	defer srv.Close()
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			inner.ServeHTTP(&cutter{ResponseWriter: w, limit: 2}, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var calls atomic.Int64
	last := 0
	remote, err := vliwmt.NewClient(ts.URL).Sweep(context.Background(), g, &vliwmt.SweepOptions{
		Progress: func(done, total int, r vliwmt.SweepResult) {
			calls.Add(1)
			if done != last+1 {
				t.Errorf("progress done=%d after %d", done, last)
			}
			last = done
		},
	})
	if err != nil {
		t.Fatalf("sweep failed after stream cut: %v", err)
	}
	if n := calls.Load(); n != int64(len(local)) {
		t.Errorf("progress called %d times for %d jobs", n, len(local))
	}
	if got := sweepKeys(t, remote); !reflect.DeepEqual(got, sweepKeys(t, local)) {
		t.Error("results after stream cut differ from in-process run")
	}
}

// TestClientServerRestartFallsBackToPolling simulates a server restart
// window: the event stream dies instantly and the status endpoint
// answers 503 for a while before recovering. The polling fallback must
// ride the 503s out and return complete, ordered results.
func TestClientServerRestartFallsBackToPolling(t *testing.T) {
	g := runnerTestGrid()
	local, err := vliwmt.Sweep(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Options{})
	defer srv.Close()
	inner := srv.Handler()
	var unavailable atomic.Int64
	unavailable.Store(5) // status calls rejected before "the restart finishes"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/events"):
			panic(http.ErrAbortHandler)
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/sweeps/"):
			if unavailable.Add(-1) >= 0 {
				http.Error(w, "restarting", http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(w, r)
		default:
			inner.ServeHTTP(w, r)
		}
	}))
	defer ts.Close()

	var calls int
	remote, err := vliwmt.NewClient(ts.URL).Sweep(context.Background(), g, &vliwmt.SweepOptions{
		Progress: func(done, total int, r vliwmt.SweepResult) { calls++ },
	})
	if err != nil {
		t.Fatalf("sweep failed across restart window: %v", err)
	}
	if calls != len(local) {
		t.Errorf("progress called %d times for %d jobs", calls, len(local))
	}
	if got := sweepKeys(t, remote); !reflect.DeepEqual(got, sweepKeys(t, local)) {
		t.Error("results across restart window differ from in-process run")
	}
}

// TestClientSubmitRetriesTransientFailures: the submission POST rides
// out transient 503s with backoff instead of failing the sweep.
func TestClientSubmitRetriesTransientFailures(t *testing.T) {
	g := runnerTestGrid()
	srv := server.New(server.Options{})
	defer srv.Close()
	inner := srv.Handler()
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && posts.Add(1) <= 2 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	remote, err := vliwmt.NewClient(ts.URL).Sweep(context.Background(), g, nil)
	if err != nil {
		t.Fatalf("submission did not survive transient 503s: %v", err)
	}
	if n := posts.Load(); n != 3 {
		t.Errorf("submission POSTed %d times, want 3 (two 503s then success)", n)
	}
	if len(remote) == 0 {
		t.Fatal("no results")
	}
}

// TestClientSubmitRejectsPermanentFailure: a 400 is not retried.
func TestClientSubmitRejectsPermanentFailure(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var posted atomic.Int64
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posted.Add(1)
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer counting.Close()

	_, err := vliwmt.NewClient(counting.URL).Sweep(context.Background(), runnerTestGrid(), nil)
	if err == nil {
		t.Fatal("400 submission reported success")
	}
	if n := posted.Load(); n != 1 {
		t.Errorf("permanent 400 retried: %d POSTs, want 1", n)
	}
}

// TestClientHealth exercises the public Health probe against a live
// server's GET /v1/healthz.
func TestClientHealth(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	h, err := vliwmt.NewClient(ts.URL).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Service != "vliwserve" {
		t.Errorf("health service %q, want vliwserve", h.Service)
	}
	if h.ActiveSweeps != 0 {
		t.Errorf("idle server reports %d active sweeps", h.ActiveSweeps)
	}
}

// routeCounter counts the sweep API requests passing through to next,
// by route.
type routeCounter struct {
	next                  http.Handler
	posts, events, status atomic.Int64
}

func (rc *routeCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/sweeps":
		rc.posts.Add(1)
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events"):
		rc.events.Add(1)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/sweeps/"):
		rc.status.Add(1)
	}
	rc.next.ServeHTTP(w, r)
}

// withoutElapsed zeroes the wall-clock field, the one field a remote
// and an in-process run of the same jobs may differ in.
func withoutElapsed(rs []vliwmt.SweepResult) []vliwmt.SweepResult {
	out := append([]vliwmt.SweepResult(nil), rs...)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// TestClientTwoExchangesOneConnection pins the warm request protocol:
// each SweepJobs call is one POST and one event stream, whose terminal
// event carries the final status (no status GET), and the client
// drains every response so sequential calls share one keep-alive
// connection.
func TestClientTwoExchangesOneConnection(t *testing.T) {
	jobs, err := runnerTestGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	local, err := vliwmt.SweepJobs(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Options{})
	defer srv.Close()
	rc := &routeCounter{next: srv.Handler()}
	ts := httptest.NewUnstartedServer(rc)
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	const n = 4
	c := vliwmt.NewClient(ts.URL)
	for i := 0; i < n; i++ {
		remote, err := c.SweepJobs(context.Background(), jobs, nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !reflect.DeepEqual(withoutElapsed(remote), withoutElapsed(local)) {
			t.Fatalf("call %d: remote results differ from in-process:\n%+v\nvs\n%+v", i, remote, local)
		}
	}
	if p, e, s := rc.posts.Load(), rc.events.Load(), rc.status.Load(); p != n || e != n || s != 0 {
		t.Errorf("%d calls made %d POSTs, %d event streams, %d status GETs; want %d, %d, 0", n, p, e, s, n, n)
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d sequential calls opened %d connections, want 1", n, got)
	}
}

// statusStripper drops the status from the terminal event, rewriting
// the stream as a server that predates the field writes it. The server
// encodes each event with one Write.
type statusStripper struct{ http.ResponseWriter }

func (s statusStripper) Write(b []byte) (int, error) {
	var ev api.Event
	if json.Unmarshal(b, &ev) != nil || ev.Status == nil {
		return s.ResponseWriter.Write(b)
	}
	ev.Status = nil
	line, err := json.Marshal(ev)
	if err != nil {
		return 0, err
	}
	if _, err := s.ResponseWriter.Write(append(line, '\n')); err != nil {
		return 0, err
	}
	return len(b), nil
}

func (s statusStripper) Flush() {
	if fl, ok := s.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// TestClientOlderServerFetchesStatusOnce: against a server whose
// terminal event has no status, the client makes exactly one status
// GET and still returns complete, ordered results with one progress
// callback per job.
func TestClientOlderServerFetchesStatusOnce(t *testing.T) {
	g := runnerTestGrid()
	local, err := vliwmt.Sweep(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Options{})
	defer srv.Close()
	inner := srv.Handler()
	rc := &routeCounter{next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			w = statusStripper{w}
		}
		inner.ServeHTTP(w, r)
	})}
	ts := httptest.NewServer(rc)
	defer ts.Close()

	calls := 0
	remote, err := vliwmt.NewClient(ts.URL).Sweep(context.Background(), g, &vliwmt.SweepOptions{
		Progress: func(done, total int, r vliwmt.SweepResult) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := rc.status.Load(); n != 1 {
		t.Errorf("%d status GETs, want exactly 1", n)
	}
	if calls != len(local) {
		t.Errorf("progress called %d times for %d jobs", calls, len(local))
	}
	if got := sweepKeys(t, remote); !reflect.DeepEqual(got, sweepKeys(t, local)) {
		t.Error("results from an older server differ from in-process run")
	}
}

// TestClientFollowsOversizedTerminalEvent feeds the client a terminal
// event bigger than any sane line cap (16 MB, the old scanner's): it
// must be decoded from the stream, not dropped into polling — the fake
// server fails every status GET.
func TestClientFollowsOversizedTerminalEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 16 MB+ event")
	}
	const n = 12_000
	label := strings.Repeat("x", 1500)
	st := api.SweepStatus{Version: api.Version, ID: "s000001", State: api.StateDone, Done: n, Total: n,
		Results: make([]api.Result, n)}
	for i := range st.Results {
		st.Results[i] = api.Result{Index: i, Job: vliwmt.SweepJob{Label: label, Scheme: "2SC3"},
			Sim: &vliwmt.Result{Cycles: int64(i + 1)}}
	}
	line, err := json.Marshal(api.Event{Done: n, Total: n, State: api.StateDone, Status: &st})
	if err != nil {
		t.Fatal(err)
	}
	if len(line) <= 16<<20 {
		t.Fatalf("terminal event is %d bytes, want more than 16 MB", len(line))
	}
	var statusGets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(api.SweepStatus{Version: api.Version, ID: st.ID, State: api.StateRunning, Total: n})
		case strings.HasSuffix(r.URL.Path, "/events"):
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write(append(line, '\n'))
		default:
			statusGets.Add(1)
			http.Error(w, "status must come from the terminal event", http.StatusInternalServerError)
		}
	}))
	defer ts.Close()

	res, err := vliwmt.NewClient(ts.URL).SweepJobs(context.Background(), []vliwmt.SweepJob{{Scheme: "2SC3"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g := statusGets.Load(); g != 0 {
		t.Errorf("client fell back to %d status GETs", g)
	}
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	for i, r := range res {
		if r.Index != i || r.Res == nil || r.Res.Cycles != int64(i+1) {
			t.Fatalf("result %d out of order or incomplete: %+v", i, r)
		}
	}
}

// streamTap records the events a server writes to its event streams
// (one Write per event) and the query each stream was requested with.
type streamTap struct {
	mu      sync.Mutex
	events  []api.Event
	queries []string
	// started is closed by the first event written. The handler writes
	// only after subscribing to the run, so a sweep held open until
	// then streams every per-job event.
	started chan struct{}
	once    sync.Once
}

type tapWriter struct {
	http.ResponseWriter
	tap *streamTap
}

func (w tapWriter) Write(b []byte) (int, error) {
	var ev api.Event
	if json.Unmarshal(b, &ev) == nil {
		w.tap.mu.Lock()
		w.tap.events = append(w.tap.events, ev)
		w.tap.mu.Unlock()
	}
	w.tap.once.Do(func() { close(w.tap.started) })
	return w.ResponseWriter.Write(b)
}

func (w tapWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// jobEvents counts the recorded non-terminal events and those of them
// that carry a result.
func (tap *streamTap) jobEvents() (n, withResult int) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	for _, ev := range tap.events {
		if ev.Terminal() {
			continue
		}
		n++
		if ev.Result != nil {
			withResult++
		}
	}
	return n, withResult
}

// heldServer serves the sweep API with each sweep held open after its
// last job until its event stream has started, and taps the streams.
// With ignoreResultsParam it drops ?results from event-stream requests,
// as a server that predates the parameter ignores it.
func heldServer(t *testing.T, ignoreResultsParam bool) (*httptest.Server, *streamTap) {
	t.Helper()
	tap := &streamTap{started: make(chan struct{})}
	exec := func(ctx context.Context, jobs []vliwmt.SweepJob, workers int, progress sweep.ProgressFunc) ([]vliwmt.SweepResult, error) {
		res, err := vliwmt.NewRunner(vliwmt.WithWorkers(workers), vliwmt.WithProgress(progress)).SweepJobs(ctx, jobs)
		select {
		case <-tap.started:
		case <-ctx.Done():
		}
		return res, err
	}
	srv := server.New(server.Options{Execute: exec})
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			tap.mu.Lock()
			tap.queries = append(tap.queries, r.URL.RawQuery)
			tap.mu.Unlock()
			if ignoreResultsParam {
				r.URL.RawQuery = ""
			}
			w = tapWriter{w, tap}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, tap
}

// TestClientWithoutProgressSkipsEventResults: a client without a
// progress callback asks for ?results=false and is sent no per-job
// results, only the terminal status; with a callback the per-job
// events still carry them. Results are identical either way.
func TestClientWithoutProgressSkipsEventResults(t *testing.T) {
	jobs, err := runnerTestGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	local, err := vliwmt.SweepJobs(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, withProgress := range []bool{false, true} {
		ts, tap := heldServer(t, false)
		var opts *vliwmt.SweepOptions
		calls := 0
		if withProgress {
			opts = &vliwmt.SweepOptions{Progress: func(done, total int, r vliwmt.SweepResult) { calls++ }}
		}
		remote, err := vliwmt.NewClient(ts.URL).SweepJobs(context.Background(), jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(withoutElapsed(remote), withoutElapsed(local)) {
			t.Errorf("progress=%v: remote results differ from in-process", withProgress)
		}
		n, withResult := tap.jobEvents()
		wantQuery, wantResults := "results=false", 0
		if withProgress {
			wantQuery, wantResults = "", len(jobs)
		}
		if n != len(jobs) || withResult != wantResults {
			t.Errorf("progress=%v: %d job events, %d with a result; want %d, %d",
				withProgress, n, withResult, len(jobs), wantResults)
		}
		if !reflect.DeepEqual(tap.queries, []string{wantQuery}) {
			t.Errorf("progress=%v: event streams requested with %q, want [%q]", withProgress, tap.queries, wantQuery)
		}
		if withProgress && calls != len(jobs) {
			t.Errorf("progress called %d times for %d jobs", calls, len(jobs))
		}
	}
}

// TestClientOlderServerIgnoresResultsParam: against a server that
// ignores ?results=false and streams every per-job result, a client
// without a callback still returns identical results.
func TestClientOlderServerIgnoresResultsParam(t *testing.T) {
	jobs, err := runnerTestGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	local, err := vliwmt.SweepJobs(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts, tap := heldServer(t, true)
	remote, err := vliwmt.NewClient(ts.URL).SweepJobs(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, withResult := tap.jobEvents(); n != len(jobs) || withResult != len(jobs) {
		t.Fatalf("stub streamed %d job events, %d with a result; want every result", n, withResult)
	}
	if !reflect.DeepEqual(withoutElapsed(remote), withoutElapsed(local)) {
		t.Error("results from a server ignoring ?results differ from in-process")
	}
}

// TestClientGeneratedNamesCrossTheWire sends generated workloads to a
// server by name alone: a grid over "genmix:" mixes and an explicit job
// whose benchmarks include a "gen:" kernel must give the same results
// remotely as in-process, since both sides regenerate the kernels from
// the names.
func TestClientGeneratedNamesCrossTheWire(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := vliwmt.NewClient(ts.URL)
	ctx := context.Background()

	g := vliwmt.Grid{
		Schemes:    []string{"2SC3", "C4"},
		Mixes:      []string{"genmix:LLHH:s7", "genmix:HHHH:s9"},
		InstrLimit: 5_000,
		Seed:       7,
	}
	local, err := vliwmt.Sweep(ctx, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.Sweep(ctx, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "genmix grid", local, remote)

	jobs := []vliwmt.SweepJob{{
		Label:           "gen-pair",
		Scheme:          "1S",
		Benchmarks:      []string{"gen:H:b2:o32:m1500:u2000:x500:p2500:t64:r1:s42", "bzip2"},
		Machine:         vliwmt.DefaultMachine(),
		ICache:          vliwmt.DefaultCache(),
		DCache:          vliwmt.DefaultCache(),
		InstrLimit:      5_000,
		TimesliceCycles: 1_000,
		Seed:            3,
	}}
	local, err = vliwmt.SweepJobs(ctx, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	remote, err = c.SweepJobs(ctx, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "gen: job", local, remote)
}

// assertSameResults fails unless every job succeeded on both sides and
// the remote results equal the in-process ones, wall clock aside.
func assertSameResults(t *testing.T, what string, local, remote []vliwmt.SweepResult) {
	t.Helper()
	if len(local) == 0 || len(remote) != len(local) {
		t.Fatalf("%s: %d remote results for %d local", what, len(remote), len(local))
	}
	for i := range local {
		if local[i].Err != nil || remote[i].Err != nil {
			t.Fatalf("%s job %d: local err %v, remote err %v", what, i, local[i].Err, remote[i].Err)
		}
		if local[i].Res.Ops == 0 {
			t.Fatalf("%s job %d ran no operations", what, i)
		}
	}
	if !reflect.DeepEqual(withoutElapsed(remote), withoutElapsed(local)) {
		t.Fatalf("%s: remote results differ from in-process:\n%+v\nvs\n%+v", what, remote, local)
	}
}
