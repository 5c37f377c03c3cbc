package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"vliwmt/internal/api"
	"vliwmt/internal/resultstore"
	"vliwmt/internal/sweep"
)

// testGrid is a 2x2 grid small enough for handler tests.
func testGrid() sweep.Grid {
	return sweep.Grid{
		Schemes:    []string{"2SC3", "3SSS"},
		Mixes:      []string{"LLHH", "HHHH"},
		InstrLimit: 5_000,
		Seed:       7,
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, req api.SweepRequest) api.SweepStatus {
	t.Helper()
	var body bytes.Buffer
	if err := api.EncodeSweepRequest(&body, req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	st, err := api.DecodeSweepStatus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal follows the sweep's event stream to its terminal event
// and returns the final status that event carries.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) api.SweepStatus {
	t.Helper()
	ev, _ := readEvents(t, ts, id)
	if ev.Status == nil {
		t.Fatalf("sweep %s: terminal event carries no status", id)
	}
	return *ev.Status
}

// fingerprint renders every deterministic field of a result set.
func fingerprint(t *testing.T, results []sweep.Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d (%s): %v", r.Index, r.Job.Describe(), r.Err)
		}
		fmt.Fprintf(&b, "%d %s seed=%d cycles=%d instrs=%d ops=%d ipc=%.12f ic=%d/%d dc=%d/%d\n",
			r.Index, r.Job.Label, r.Job.Seed, r.Res.Cycles, r.Res.Instrs, r.Res.Ops, r.Res.IPC,
			r.Res.ICache.Accesses, r.Res.ICache.Misses, r.Res.DCache.Accesses, r.Res.DCache.Misses)
	}
	return b.String()
}

// TestSubmitStatusMatchesInProcess submits a grid over HTTP and checks
// the aggregated results are bit-identical to an in-process run of the
// same grid — the acceptance criterion of the service redesign — at
// two different server worker counts.
func TestSubmitStatusMatchesInProcess(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.New(4).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, local)

	for _, workers := range []int{1, 8} {
		g := testGrid()
		_, ts := newTestServer(t, Options{})
		st := submit(t, ts, api.SweepRequest{Grid: &g, Workers: workers})
		if st.Total != 4 || st.ID == "" {
			t.Fatalf("submit status: %+v", st)
		}
		final := waitTerminal(t, ts, st.ID)
		if final.State != api.StateDone || final.Done != 4 {
			t.Fatalf("final status: %+v (error %q)", final.State, final.Error)
		}
		if len(final.Results) != 4 {
			t.Fatalf("got %d results, want 4", len(final.Results))
		}
		got := fingerprint(t, api.SweepResults(final.Results))
		if got != want {
			t.Errorf("workers=%d: remote results differ from in-process:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestGridAndExplicitJobs submits a request carrying both a grid and
// explicit jobs and checks the server runs exactly what
// SweepRequest.Expand lists — the grid's jobs, then the explicit ones —
// with the same results as an in-process run of that list.
func TestGridAndExplicitJobs(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	g := sweep.Grid{Schemes: []string{"2SC3"}, Mixes: []string{"HHHH"}, InstrLimit: 5_000, Seed: 3}
	req := api.SweepRequest{Grid: &g, Jobs: jobs[:2]}
	want, err := req.Expand()
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{})
	st := waitTerminal(t, ts, submit(t, ts, req).ID)
	if st.State != api.StateDone || len(st.Results) != 3 {
		t.Fatalf("final status %s with %d results, want done with 3", st.State, len(st.Results))
	}
	local, err := sweep.New(2).Run(context.Background(), want)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, api.SweepResults(st.Results)), fingerprint(t, local); got != want {
		t.Errorf("grid-plus-jobs results differ:\n%s\nvs\n%s", got, want)
	}
}

// TestEventsStream reads the NDJSON stream and checks replay plus live
// events cover every job and end with the terminal event.
func TestEventsStream(t *testing.T) {
	// A single worker and a larger budget keep the sweep in flight
	// until the stream attaches; a finished sweep replays only its
	// terminal event.
	g := testGrid()
	g.InstrLimit = 100_000
	_, ts := newTestServer(t, Options{})
	st := submit(t, ts, api.SweepRequest{Grid: &g, Workers: 1})

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var jobEvents int
	var last api.Event
	for sc.Scan() {
		var ev api.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Result != nil {
			jobEvents++
			if ev.Done != jobEvents {
				t.Errorf("event done=%d out of order (want %d)", ev.Done, jobEvents)
			}
		}
		last = ev
		if ev.Terminal() {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if jobEvents != 4 {
		t.Errorf("saw %d job events, want 4", jobEvents)
	}
	if last.State != api.StateDone {
		t.Errorf("terminal event state %q", last.State)
	}
}

// TestEventsWithoutResults: with ?results=false the per-job events keep
// their counts but carry no result, and the terminal event still
// carries the full status; an unparsable value is a 400. The executor
// holds the sweep open after its last job, so every per-job event is
// in the stream before the terminal one.
func TestEventsWithoutResults(t *testing.T) {
	release := make(chan struct{})
	_, ts := newTestServer(t, Options{Execute: heldExecutor(release)})
	g := testGrid()
	st := submit(t, ts, api.SweepRequest{Grid: &g})

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events?results=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("results=bogus: %s, want 400", resp.Status)
	}

	resp, err = http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/events?results=false")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for done := 1; done <= st.Total; done++ {
		var ev api.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Terminal() || ev.Done != done || ev.Total != st.Total {
			t.Fatalf("event %+v, want job event %d/%d", ev, done, st.Total)
		}
		if ev.Result != nil {
			t.Errorf("job event %d carries a result", done)
		}
	}
	close(release)
	var last api.Event
	if err := dec.Decode(&last); err != nil {
		t.Fatal(err)
	}
	if !last.Terminal() || last.Status == nil || len(last.Status.Results) != st.Total {
		t.Fatalf("terminal event lacks the full status: %+v", last)
	}
	for _, r := range last.Status.Results {
		if r.Sim == nil {
			t.Errorf("terminal status result %d has no simulation result", r.Index)
		}
	}
}

// heldExecutor runs the jobs on one worker, reporting progress, then
// holds the sweep open until release is closed or the sweep is
// cancelled.
func heldExecutor(release <-chan struct{}) Executor {
	return func(ctx context.Context, jobs []sweep.Job, workers int, progress sweep.ProgressFunc) ([]sweep.Result, error) {
		e := sweep.New(1)
		e.SetProgress(progress)
		res, err := e.Run(ctx, jobs)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return res, err
	}
}

// readEvents reads a sweep's event stream through its terminal event
// and returns that event with the number of job events before it.
func readEvents(t *testing.T, ts *httptest.Server, id string) (api.Event, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	jobEvents := 0
	for {
		var ev api.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("event stream ended before the terminal event: %v", err)
		}
		if ev.Terminal() {
			return ev, jobEvents
		}
		if ev.Status != nil {
			t.Errorf("job event %d carries a status", ev.Done)
		}
		if ev.Result != nil {
			jobEvents++
		}
	}
}

// TestTerminalEventCarriesStatus: the terminal event of a live stream
// carries the final status with every result in job order, and a late
// subscriber's replay carries the same document.
func TestTerminalEventCarriesStatus(t *testing.T) {
	g := testGrid()
	g.InstrLimit = 100_000
	_, ts := newTestServer(t, Options{})
	st := submit(t, ts, api.SweepRequest{Grid: &g, Workers: 1})

	live, jobEvents := readEvents(t, ts, st.ID)
	if jobEvents != 4 {
		t.Errorf("live stream saw %d job events, want 4", jobEvents)
	}
	if live.Status == nil || live.Status.State != api.StateDone || len(live.Status.Results) != 4 {
		t.Fatalf("live terminal event status: %+v", live.Status)
	}
	for i, r := range live.Status.Results {
		if r.Index != i || r.Sim == nil {
			t.Errorf("terminal status result %d: index %d, sim %v", i, r.Index, r.Sim)
		}
	}

	late, jobEvents := readEvents(t, ts, st.ID)
	if jobEvents != 0 {
		t.Errorf("late subscriber replayed %d job events, want only the terminal event", jobEvents)
	}
	if late.Status == nil || !reflect.DeepEqual(*late.Status, *live.Status) {
		t.Errorf("replayed terminal event status differs from the live one:\n%+v\nvs\n%+v", late.Status, live.Status)
	}
}

// TestCancel checks DELETE cancels a running sweep and the status
// reports the canceled state.
func TestCancel(t *testing.T) {
	// A grid big enough to still be running when the DELETE lands, on
	// a single worker.
	g := sweep.Grid{InstrLimit: 50_000, Seed: 1}
	_, ts := newTestServer(t, Options{})
	st := submit(t, ts, api.SweepRequest{Grid: &g, Workers: 1})
	if st.Total != 16*9 {
		t.Fatalf("total %d, want 144", st.Total)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %s", resp.Status)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != api.StateCanceled {
		t.Errorf("state %q after DELETE, want canceled", final.State)
	}
	if final.Error == "" {
		t.Error("canceled sweep reports no error")
	}
}

// cacheHits counts a terminal status's results served from the store.
func cacheHits(st api.SweepStatus) int {
	n := 0
	for _, r := range st.Results {
		if r.Cached {
			n++
		}
	}
	return n
}

// TestResultPersistenceServesRepeats checks that with a result
// directory configured, an identical repeat sweep is served from disk:
// same results, no additional compilation.
func TestResultPersistenceServesRepeats(t *testing.T) {
	dir := t.TempDir()
	g := testGrid()
	srv, ts := newTestServer(t, Options{Store: resultstore.Open(dir)})
	first := waitTerminal(t, ts, submit(t, ts, api.SweepRequest{Grid: &g}).ID)
	if first.State != api.StateDone {
		t.Fatalf("first sweep: %+v", first)
	}
	compiles, _ := srv.cache.Stats()

	second := waitTerminal(t, ts, submit(t, ts, api.SweepRequest{Grid: &g}).ID)
	if second.State != api.StateDone {
		t.Fatalf("second sweep: %+v", second)
	}
	if again, _ := srv.cache.Stats(); again != compiles {
		t.Errorf("repeat sweep compiled kernels (%d -> %d); want disk-served", compiles, again)
	}
	if got, want := fingerprint(t, api.SweepResults(second.Results)), fingerprint(t, api.SweepResults(first.Results)); got != want {
		t.Errorf("disk-served results differ:\n%s\nvs\n%s", got, want)
	}

	// The cache-hit accounting, per result: the cold sweep hit nothing,
	// the warm sweep was served entirely from the store.
	if n := cacheHits(first); n != 0 {
		t.Errorf("cold sweep reports %d cache hits, want 0", n)
	}
	if n := cacheHits(second); n != second.Total {
		t.Errorf("warm sweep reports %d cache hits, want %d", n, second.Total)
	}

	// The store outlives the server: a fresh server on the same
	// directory — a restart — serves the same sweep without simulating.
	srv2, ts2 := newTestServer(t, Options{Store: resultstore.Open(dir)})
	third := waitTerminal(t, ts2, submit(t, ts2, api.SweepRequest{Grid: &g}).ID)
	if n := cacheHits(third); third.State != api.StateDone || n != third.Total {
		t.Errorf("restarted server: state %s, %d/%d cache hits; want done and all hits",
			third.State, n, third.Total)
	}
	// Submit validates every job by compiling its kernels, so the
	// restarted server compiles each kernel once, as the first one did,
	// and simulates nothing.
	if again, _ := srv2.cache.Stats(); again != compiles {
		t.Errorf("restarted server compiled %d kernels for a stored sweep, want the %d its validation compiles", again, compiles)
	}
}

// TestRunRetentionBounded checks that terminal runs are evicted once
// the retention cap is exceeded (a long-lived server must not grow
// without bound) and that their replay log shrinks to the terminal
// event, while running sweeps are never evicted.
func TestRunRetentionBounded(t *testing.T) {
	srv := New(Options{})
	defer srv.Close()
	live := srv.register(1, func() {})
	for i := 0; i < maxRetainedRuns+50; i++ {
		ru := srv.register(1, func() {})
		ru.finish(nil, nil)
		if got := len(ru.events); got != 1 {
			t.Fatalf("terminal run retains %d replay events, want 1", got)
		}
	}
	srv.mu.Lock()
	n, order := len(srv.runs), len(srv.order)
	_, liveKept := srv.runs[live.id]
	srv.mu.Unlock()
	if n > maxRetainedRuns {
		t.Errorf("%d runs retained, want <= %d", n, maxRetainedRuns)
	}
	if n != order {
		t.Errorf("runs map (%d) and order slice (%d) disagree", n, order)
	}
	if !liveKept {
		t.Error("running sweep was evicted")
	}
}

// TestQueryBool checks the boolean query parser: an absent ?results
// takes the default, explicit values parse, and garbage is an error.
func TestQueryBool(t *testing.T) {
	for v, want := range map[string]bool{"": true, "0": false, "false": false, "1": true, "true": true} {
		got, err := queryBool("results", v, true)
		if err != nil || got != want {
			t.Errorf("queryBool(results=%q) = %v, %v; want %v", v, got, err, want)
		}
	}
	if _, err := queryBool("results", "yes-please", true); err == nil {
		t.Error("garbage results value accepted")
	}
}

// TestBadRequests checks the error paths: malformed body, wrong
// version, unknown scheme, unknown id.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed body: %d", code)
	}
	if code := post(`{"version":99,"grid":{}}`); code != http.StatusBadRequest {
		t.Errorf("future version: %d", code)
	}
	if code := post(`{"version":1}`); code != http.StatusBadRequest {
		t.Errorf("empty request: %d", code)
	}
	if code := post(`{"version":1,"grid":{"schemes":["bogus!"]}}`); code != http.StatusBadRequest {
		t.Errorf("bogus scheme: %d", code)
	}
	for _, spec := range []string{`{"tree":"S(T0"}`, `{}`} {
		body := `{"version":3,"jobs":[{"merge":` + spec + `,"benchmarks":["mcf","fft","dijkstra","colorspace"],"instr_limit":1000}]}`
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("job with merge spec %s: %d", spec, code)
		}
	}
	// Jobs that fail Job.Validate: a machine that cannot host the
	// kernels and a latency beyond the compiler's bound. A budget whose
	// cycle bound overflows also fails it, but exceeds MaxRequestInstrs
	// first, so it is a 413.
	const machine = `"clusters":4,"issue_width":4,"muls":2,"branch_clusters":1,"latency_alu":1,"latency_mul":2,"latency_copy":1,"branch_penalty":2`
	for _, c := range []struct {
		job  string
		want int
	}{
		{`"instr_limit":36028797018963968,"machine":{"mem_units":1,"latency_mem":2,` + machine + `}`, http.StatusRequestEntityTooLarge},
		{`"instr_limit":1000,"machine":{"mem_units":0,"latency_mem":2,` + machine + `}`, http.StatusBadRequest},
		{`"instr_limit":1000,"machine":{"mem_units":1,"latency_mem":10000000,` + machine + `}`, http.StatusBadRequest},
	} {
		body := `{"version":3,"jobs":[{"scheme":"2SC3","benchmarks":["mcf","blowfish","x264","idct"],"perfect_memory":true,` + c.job + `}]}`
		if code := post(body); code != c.want {
			t.Errorf("invalid job %s: %d, want %d", c.job, code, c.want)
		}
	}
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		path := "/v1/sweeps/nope"
		if method == http.MethodGet {
			path += "/events"
		}
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", method, path, resp.StatusCode)
		}
	}
}

// TestServedRoutes pins the handler's surface: the sweep routes the
// client uses and GET /v1/healthz answer, while the status route, the
// sweep list, the plain-text probe and the store endpoints do not
// exist.
func TestServedRoutes(t *testing.T) {
	_, ts := newTestServer(t, Options{Store: resultstore.Open(t.TempDir())})
	g := testGrid()
	st := waitTerminal(t, ts, submit(t, ts, api.SweepRequest{Grid: &g}).ID)
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/healthz", http.StatusOK},
		{http.MethodGet, "/v1/sweeps/" + st.ID, http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/sweeps/" + st.ID + "/events", http.StatusOK},
		{http.MethodDelete, "/v1/sweeps/" + st.ID, http.StatusAccepted},
		{http.MethodGet, "/v1/sweeps", http.StatusMethodNotAllowed},
		{http.MethodGet, "/healthz", http.StatusNotFound},
		{http.MethodGet, "/v1/store", http.StatusNotFound},
		{http.MethodDelete, "/v1/store", http.StatusNotFound},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestSweepIDsUniqueAcrossServers: two servers, as a server and its
// restart, hand out different first IDs, so a client that attaches by
// ID after a restart cannot follow another client's sweep.
func TestSweepIDsUniqueAcrossServers(t *testing.T) {
	a, b := New(Options{}), New(Options{})
	defer a.Close()
	defer b.Close()
	if ida, idb := a.register(1, func() {}).id, b.register(1, func() {}).id; ida == idb {
		t.Errorf("two servers' first sweep IDs are both %q", ida)
	}
}

// TestAdmissionLimit: a request whose jobs together claim more than
// MaxRequestInstrs instructions is a 413 naming the bound, decided
// before any kernel compiles or any job runs. The paper's full-budget
// Figure 10 grid is admitted, and the sum cannot overflow.
func TestAdmissionLimit(t *testing.T) {
	paper, err := sweep.Grid{InstrLimit: 100_000_000}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if err := admit(paper); err != nil {
		t.Errorf("full-budget Figure 10 grid (%d jobs) rejected: %v", len(paper), err)
	}
	exact := []sweep.Job{{InstrLimit: MaxRequestInstrs - 1}, {InstrLimit: 1}}
	if err := admit(exact); err != nil {
		t.Errorf("request of exactly MaxRequestInstrs rejected: %v", err)
	}
	exact[1].InstrLimit = 2
	if admit(exact) == nil {
		t.Error("request of MaxRequestInstrs+1 admitted")
	}
	if admit([]sweep.Job{{InstrLimit: -1 << 62}, {InstrLimit: -1 << 62}, {InstrLimit: MaxRequestInstrs + 1}}) == nil {
		t.Error("negative budgets offset an over-bound one")
	}

	var ran atomic.Bool
	exec := func(ctx context.Context, jobs []sweep.Job, workers int, progress sweep.ProgressFunc) ([]sweep.Result, error) {
		ran.Store(true)
		return nil, nil
	}
	srv, ts := newTestServer(t, Options{Execute: exec})
	g := sweep.Grid{Mixes: make([]string, 256), Schemes: make([]string, sweep.MaxGridJobs/256), InstrLimit: 1_000_000_000}
	for i := range g.Mixes {
		g.Mixes[i] = "LLHH"
	}
	for i := range g.Schemes {
		g.Schemes[i] = "3SSS"
	}
	var body bytes.Buffer
	if err := api.EncodeSweepRequest(&body, api.SweepRequest{Grid: &g}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d jobs x 10^9 instructions: %s, want 413", sweep.MaxGridJobs, resp.Status)
	}
	if !strings.Contains(string(msg), fmt.Sprint(int64(MaxRequestInstrs))) {
		t.Errorf("error %q does not name the bound", msg)
	}
	if compiles, hits := srv.cache.Stats(); compiles != 0 || hits != 0 {
		t.Errorf("rejected request compiled %d kernels (%d cache hits), want none", compiles, hits)
	}
	srv.mu.Lock()
	registered := len(srv.runs)
	srv.mu.Unlock()
	if registered != 0 || ran.Load() {
		t.Errorf("rejected request registered %d sweeps (executor ran: %v)", registered, ran.Load())
	}
}

// TestOverCapGridRejected checks that a few-kilobyte request whose
// grid expands past sweep.MaxGridJobs is a 400 naming the limit, and
// that nothing is registered for it.
func TestOverCapGridRejected(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	g := sweep.Grid{Mixes: make([]string, 256), Schemes: make([]string, sweep.MaxGridJobs/256+1)}
	for i := range g.Mixes {
		g.Mixes[i] = "LLHH"
	}
	for i := range g.Schemes {
		g.Schemes[i] = "3SSS"
	}
	var body bytes.Buffer
	if err := api.EncodeSweepRequest(&body, api.SweepRequest{Grid: &g}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap grid: %s, want 400", resp.Status)
	}
	if !strings.Contains(string(msg), fmt.Sprint(sweep.MaxGridJobs)) {
		t.Errorf("error %q does not name the limit", msg)
	}
	srv.mu.Lock()
	registered := len(srv.runs)
	srv.mu.Unlock()
	if registered != 0 {
		t.Errorf("%d sweeps registered for a rejected request", registered)
	}
}

// health fetches and decodes the server's GET /v1/healthz document.
func health(t *testing.T, ts *httptest.Server) api.Health {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	h, err := api.DecodeHealth(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestHealthzV1 exercises the structured health document: service
// identity and load, cheap enough for a periodic ping, from a
// store-backed and a storeless server alike.
func TestHealthzV1(t *testing.T) {
	_, ts := newTestServer(t, Options{Store: resultstore.Open(t.TempDir())})
	_, plain := newTestServer(t, Options{})
	for name, ts := range map[string]*httptest.Server{"store": ts, "storeless": plain} {
		h := health(t, ts)
		if h.Service != "vliwserve" {
			t.Errorf("%s: service %q, want vliwserve", name, h.Service)
		}
		if h.Version != api.Version {
			t.Errorf("%s: version %d, want %d", name, h.Version, api.Version)
		}
		if h.GoVersion == "" {
			t.Errorf("%s: health lacks the Go version", name)
		}
		if h.ActiveSweeps != 0 {
			t.Errorf("%s: idle server reports %d active sweeps", name, h.ActiveSweeps)
		}
	}
}

// TestActiveSweepsPerServer: a health document counts its own server's
// sweeps that have not finished. A sweep held open on one server does
// not show on another server in the same process, and once a client
// has read a sweep's terminal event, its server no longer counts it.
func TestActiveSweepsPerServer(t *testing.T) {
	release := make(chan struct{})
	_, held := newTestServer(t, Options{Execute: heldExecutor(release)})
	_, other := newTestServer(t, Options{})
	g := testGrid()
	st := submit(t, held, api.SweepRequest{Grid: &g})

	resp, err := http.Get(held.URL + "/v1/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var ev api.Event
	if err := dec.Decode(&ev); err != nil { // a job event: the sweep is executing
		t.Fatal(err)
	}
	if n := health(t, held).ActiveSweeps; n != 1 {
		t.Errorf("server holding a sweep reports %d active sweeps, want 1", n)
	}
	if n := health(t, other).ActiveSweeps; n != 0 {
		t.Errorf("idle server reports %d active sweeps while another server runs one", n)
	}

	close(release)
	for !ev.Terminal() {
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("event stream ended before the terminal event: %v", err)
		}
	}
	if n := health(t, held).ActiveSweeps; n != 0 {
		t.Errorf("server reports %d active sweeps after the terminal event was read", n)
	}
}
