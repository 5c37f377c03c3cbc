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
	"time"

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

// heldExecutor runs the jobs in-process, reporting progress, then
// holds the sweep open until release is closed or the sweep is
// cancelled, so an event stream attached meanwhile sees every per-job
// event before the terminal one.
func heldExecutor(release <-chan struct{}) server.Executor {
	return func(ctx context.Context, jobs []vliwmt.SweepJob, workers int, progress sweep.ProgressFunc) ([]vliwmt.SweepResult, error) {
		res, err := vliwmt.NewRunner(vliwmt.WithWorkers(workers), vliwmt.WithProgress(progress)).SweepJobs(ctx, jobs)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return res, err
	}
}

// TestClientReattachesAfterStreamBreak cuts the first event stream
// after two lines: the client must attach to the same stream again and
// still deliver complete, ordered results with exactly one progress
// callback per job, from one POST and no status request. The sweep is
// held open until the client's next request, so the cut lands
// mid-sweep.
func TestClientReattachesAfterStreamBreak(t *testing.T) {
	g := runnerTestGrid()
	local, err := vliwmt.Sweep(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	var releaseOnce sync.Once
	srv := server.New(server.Options{Execute: heldExecutor(release)})
	defer srv.Close()
	inner := srv.Handler()
	var streams atomic.Int64
	rc := &routeCounter{next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/sweeps/") {
			if strings.HasSuffix(r.URL.Path, "/events") && streams.Add(1) == 1 {
				inner.ServeHTTP(&cutter{ResponseWriter: w, limit: 2}, r)
				return
			}
			releaseOnce.Do(func() { close(release) })
		}
		inner.ServeHTTP(w, r)
	})}
	ts := httptest.NewServer(rc)
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
	if p, e, s := rc.posts.Load(), rc.events.Load(), rc.status.Load(); p != 1 || e != 2 || s != 0 {
		t.Errorf("sweep made %d POSTs, %d event streams, %d status GETs; want 1, 2, 0", p, e, s)
	}
}

// TestClientReattachToRestartedServerFails: the event stream breaks and
// the server restarts before the client attaches again, after another
// client has submitted a different sweep to the new process. The
// re-attach must end in an error, never in the other sweep's results.
func TestClientReattachToRestartedServerFails(t *testing.T) {
	first := server.New(server.Options{Execute: heldExecutor(nil)})
	defer first.Close()
	second := server.New(server.Options{})
	defer second.Close()
	secondTS := httptest.NewServer(second.Handler())
	defer secondTS.Close()
	other := vliwmt.Grid{Schemes: []string{"3CCC"}, Mixes: []string{"HHHH"}, InstrLimit: 5_000, Seed: 3}
	if _, err := vliwmt.NewClient(secondTS.URL).Sweep(context.Background(), other, nil); err != nil {
		t.Fatal(err)
	}

	firstH, secondH := first.Handler(), second.Handler()
	var restarted atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if restarted.Load() {
			secondH.ServeHTTP(w, r)
			return
		}
		if strings.HasSuffix(r.URL.Path, "/events") {
			defer restarted.Store(true)
			firstH.ServeHTTP(&cutter{ResponseWriter: w, limit: 1}, r)
			return
		}
		firstH.ServeHTTP(w, r)
	}))
	defer ts.Close()

	res, err := vliwmt.NewClient(ts.URL).Sweep(context.Background(), runnerTestGrid(), nil)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("re-attach to a restarted server: err %v, want a 404", err)
	}
	if len(res) != 0 {
		t.Errorf("re-attach to a restarted server returned %d results of another sweep", len(res))
	}
}

// TestClientSubmitsOnce: the server accepts the POST but its reply is
// lost. A POST is not idempotent, so the client must report the error
// rather than submit the sweep a second time.
func TestClientSubmitsOnce(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	inner := srv.Handler()
	var accepted atomic.Int64
	var lost atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if rec.Code == http.StatusAccepted {
			accepted.Add(1)
		}
		if lost.CompareAndSwap(false, true) {
			panic(http.ErrAbortHandler) // the reply never reaches the client
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer ts.Close()

	if _, err := vliwmt.NewClient(ts.URL).Sweep(context.Background(), runnerTestGrid(), nil); err == nil {
		t.Error("sweep whose submit reply was lost reported success")
	}
	if n := accepted.Load(); n != 1 {
		t.Errorf("server accepted %d sweeps for one call, want 1", n)
	}
}

// TestClientSubmitRejectsPermanentFailure: a 400 is not retried.
func TestClientSubmitRejectsPermanentFailure(t *testing.T) {
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

// fakeSweepServer accepts every POST as sweep "s1" of total jobs and
// answers each event-stream request with events. It counts the
// event-stream attaches and every other request, which it fails.
func fakeSweepServer(t *testing.T, total int, events http.HandlerFunc) (url string, attaches, others *atomic.Int64) {
	t.Helper()
	attaches, others = new(atomic.Int64), new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(api.SweepStatus{Version: api.Version, ID: "s1", State: api.StateRunning, Total: total})
		case strings.HasSuffix(r.URL.Path, "/events"):
			attaches.Add(1)
			w.Header().Set("Content-Type", "application/x-ndjson")
			events(w, r)
		default:
			others.Add(1)
			http.Error(w, "the client needs only the POST and the event stream", http.StatusInternalServerError)
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL, attaches, others
}

// TestClientFollowsOversizedTerminalEvent feeds the client a terminal
// event bigger than any sane line cap (16 MB, the old scanner's): it
// must be decoded from the stream in one attach.
func TestClientFollowsOversizedTerminalEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 16 MB+ event")
	}
	const n = 12_000
	label := strings.Repeat("x", 1500)
	st := api.SweepStatus{Version: api.Version, ID: "s1", State: api.StateDone, Done: n, Total: n,
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
	url, attaches, others := fakeSweepServer(t, n, func(w http.ResponseWriter, r *http.Request) {
		w.Write(append(line, '\n'))
	})

	res, err := vliwmt.NewClient(url).SweepJobs(context.Background(), []vliwmt.SweepJob{{Scheme: "2SC3"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, o := attaches.Load(), others.Load(); a != 1 || o != 0 {
		t.Errorf("client made %d event-stream attaches and %d other requests, want 1 and 0", a, o)
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

// TestClientTerminalEventWithoutStatusFails: a terminal event must
// carry the final status; one without it is a protocol error, not a
// cue for another request.
func TestClientTerminalEventWithoutStatusFails(t *testing.T) {
	url, attaches, others := fakeSweepServer(t, 1, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"done":1,"total":1,"state":"done"}` + "\n"))
	})
	_, err := vliwmt.NewClient(url).SweepJobs(context.Background(), []vliwmt.SweepJob{{Scheme: "2SC3"}}, nil)
	if err == nil || !strings.Contains(err.Error(), "no status") {
		t.Errorf("terminal event without a status: err %v, want a protocol error", err)
	}
	if a, o := attaches.Load(), others.Load(); a != 1 || o != 0 {
		t.Errorf("client made %d event-stream attaches and %d other requests, want 1 and 0", a, o)
	}
}

// TestClientReattachesAtMostThreeTimes: against a stream that always
// answers 200 and breaks after one event, the client gives up with an
// error after the first attach and three re-attaches.
func TestClientReattachesAtMostThreeTimes(t *testing.T) {
	url, attaches, others := fakeSweepServer(t, 2, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"done":1,"total":2}` + "\n"))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	_, err := vliwmt.NewClient(url).SweepJobs(context.Background(), []vliwmt.SweepJob{{Scheme: "2SC3"}}, nil)
	if err == nil {
		t.Error("a stream that always breaks reported success")
	}
	if a, o := attaches.Load(), others.Load(); a != 4 || o != 0 {
		t.Errorf("client made %d event-stream attaches and %d other requests, want 4 and 0", a, o)
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
func heldServer(t *testing.T) (*httptest.Server, *streamTap) {
	t.Helper()
	tap := &streamTap{started: make(chan struct{})}
	srv := server.New(server.Options{Execute: heldExecutor(tap.started)})
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			tap.mu.Lock()
			tap.queries = append(tap.queries, r.URL.RawQuery)
			tap.mu.Unlock()
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
		ts, tap := heldServer(t)
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

// TestClientSummaryMatchesInProcess: on a warm store shared by a
// Runner and a server, the roll-up of a remote sweep's results equals
// the roll-up of the same sweep in-process. Cached results replay the
// stored elapsed times on both sides, so even the latency percentiles
// agree.
func TestClientSummaryMatchesInProcess(t *testing.T) {
	dir := t.TempDir()
	jobs, err := runnerTestGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	r := vliwmt.NewRunner(vliwmt.WithResultStore(dir))
	if _, err := r.SweepJobs(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	local, err := r.SweepJobs(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Options{Store: vliwmt.OpenResultStore(dir)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	remote, err := vliwmt.NewClient(ts.URL).SweepJobs(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}

	ls, rs := vliwmt.SummarizeSweep(local, time.Second), vliwmt.SummarizeSweep(remote, time.Second)
	if ls.Jobs != len(jobs) || ls.CacheHits != len(jobs) || ls.Errors != 0 {
		t.Fatalf("in-process warm sweep: %v; want %d jobs, all store hits", ls, len(jobs))
	}
	if rs.Jobs != ls.Jobs || rs.Errors != ls.Errors || rs.CacheHits != ls.CacheHits || rs.P50 != ls.P50 || rs.P99 != ls.P99 {
		t.Errorf("remote roll-up differs from in-process:\nremote     %v\nin-process %v", rs, ls)
	}
}

// TestClientFollowsOldCountMembers: a server that still attaches the
// count members removed within wire version 3 ("cache_hits", "errors"
// and "summary") to its terminal status is followed as before, and
// the client returns the same results as from a status without them.
func TestClientFollowsOldCountMembers(t *testing.T) {
	res := []api.Result{
		{Index: 0, Job: vliwmt.SweepJob{Label: "a", Scheme: "2SC3"}, Sim: &vliwmt.Result{Cycles: 11}, ElapsedSec: 0.25, Cached: true},
		{Index: 1, Job: vliwmt.SweepJob{Label: "b", Scheme: "3SSS"}, Sim: &vliwmt.Result{Cycles: 22}, ElapsedSec: 0.5},
	}
	st := api.SweepStatus{Version: api.Version, ID: "s1", State: api.StateDone, Done: 2, Total: 2, Results: res}
	plain, err := json.Marshal(api.Event{Done: 2, Total: 2, State: api.StateDone, Status: &st})
	if err != nil {
		t.Fatal(err)
	}
	counts := `"total":2,"cache_hits":1,"summary":{"jobs":2,"cache_hits":1,"cache_hit_ratio":0.5,` +
		`"wall_sec":1,"p50_sec":0.25,"p99_sec":0.5,"jobs_per_sec":2},`
	// The event's own "total" comes first; the status's is the second.
	i := strings.LastIndex(string(plain), `"total":2,`)
	old := string(plain[:i]) + counts + string(plain[i+len(`"total":2,`):])
	if !strings.Contains(old, `"state":"done","done":2,"total":2,"cache_hits":1`) {
		t.Fatalf("counts not spliced into the status:\n%s", old)
	}

	follow := func(line string) []vliwmt.SweepResult {
		t.Helper()
		url, attaches, others := fakeSweepServer(t, 2, func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(line + "\n"))
		})
		got, err := vliwmt.NewClient(url).SweepJobs(context.Background(), []vliwmt.SweepJob{{Scheme: "2SC3"}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a, o := attaches.Load(), others.Load(); a != 1 || o != 0 {
			t.Errorf("client made %d event-stream attaches and %d other requests, want 1 and 0", a, o)
		}
		return got
	}
	want, got := follow(string(plain)), follow(old)
	if len(want) != 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("old terminal status gives\n%+v\nwant\n%+v", got, want)
	}
}
