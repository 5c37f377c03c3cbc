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
	"testing"
	"time"

	"vliwmt"
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

func submit(t *testing.T, ts *httptest.Server, req api.SweepRequest, query string) api.SweepStatus {
	t.Helper()
	var body bytes.Buffer
	if err := api.EncodeSweepRequest(&body, req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps"+query, "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %s", resp.Status)
	}
	st, err := api.DecodeSweepStatus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) api.SweepStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %s", resp.Status)
	}
	st, err := api.DecodeSweepStatus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) api.SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached a terminal state", id)
	return api.SweepStatus{}
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
		st := submit(t, ts, api.SweepRequest{Grid: &g, Workers: workers}, "")
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

// TestExplicitJobsAndWaitMode submits explicit jobs with ?wait=1 and
// checks the synchronous response carries the finished results.
func TestExplicitJobsAndWaitMode(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	req := api.SweepRequest{Jobs: jobs[:2]}
	_, ts := newTestServer(t, Options{})
	st := submit(t, ts, req, "?wait=1")
	if !st.State.Terminal() || st.State != api.StateDone {
		t.Fatalf("wait-mode response not terminal: %+v", st)
	}
	if len(st.Results) != 2 {
		t.Fatalf("wait-mode response has %d results, want 2", len(st.Results))
	}
	local, err := sweep.New(2).Run(context.Background(), jobs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, api.SweepResults(st.Results)), fingerprint(t, local); got != want {
		t.Errorf("wait-mode results differ:\n%s\nvs\n%s", got, want)
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
	st := submit(t, ts, api.SweepRequest{Grid: &g, Workers: 1}, "")

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
	exec := func(ctx context.Context, jobs []sweep.Job, workers int, progress sweep.ProgressFunc) ([]sweep.Result, error) {
		res, err := vliwmt.NewRunner(vliwmt.WithWorkers(1), vliwmt.WithProgress(progress)).SweepJobs(ctx, jobs)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return res, err
	}
	_, ts := newTestServer(t, Options{Execute: exec})
	g := testGrid()
	st := submit(t, ts, api.SweepRequest{Grid: &g}, "")

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
// and of a late subscriber's replay both carry exactly the document
// GET /v1/sweeps/{id} returns, ordered results included.
func TestTerminalEventCarriesStatus(t *testing.T) {
	g := testGrid()
	g.InstrLimit = 100_000
	_, ts := newTestServer(t, Options{})
	st := submit(t, ts, api.SweepRequest{Grid: &g, Workers: 1}, "")

	live, jobEvents := readEvents(t, ts, st.ID)
	if jobEvents != 4 {
		t.Errorf("live stream saw %d job events, want 4", jobEvents)
	}
	want := getStatus(t, ts, st.ID)
	if want.State != api.StateDone || len(want.Results) != 4 {
		t.Fatalf("final status: %s with %d results", want.State, len(want.Results))
	}
	if live.Status == nil || !reflect.DeepEqual(*live.Status, want) {
		t.Errorf("live terminal event status differs from GET:\n%+v\nvs\n%+v", live.Status, want)
	}

	late, jobEvents := readEvents(t, ts, st.ID)
	if jobEvents != 0 {
		t.Errorf("late subscriber replayed %d job events, want only the terminal event", jobEvents)
	}
	if late.Status == nil || !reflect.DeepEqual(*late.Status, want) {
		t.Errorf("replayed terminal event status differs from GET:\n%+v\nvs\n%+v", late.Status, want)
	}
}

// TestCancel checks DELETE cancels a running sweep and the status
// reports the canceled state.
func TestCancel(t *testing.T) {
	// A grid big enough to still be running when the DELETE lands, on
	// a single worker.
	g := sweep.Grid{InstrLimit: 50_000, Seed: 1}
	_, ts := newTestServer(t, Options{})
	st := submit(t, ts, api.SweepRequest{Grid: &g, Workers: 1}, "")
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

// TestWaitModeClientDisconnectCancels checks the context propagation
// path: a client that disconnects from a ?wait=1 submission cancels
// the sweep server-side.
func TestWaitModeClientDisconnectCancels(t *testing.T) {
	g := sweep.Grid{InstrLimit: 50_000, Seed: 1}
	_, ts := newTestServer(t, Options{})
	var body bytes.Buffer
	if err := api.EncodeSweepRequest(&body, api.SweepRequest{Grid: &g, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweeps?wait=1", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Give the sweep a moment to start, then drop the connection.
	time.Sleep(200 * time.Millisecond)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("request unexpectedly succeeded after cancel")
	}

	// The run was registered; find it via the listing and wait for the
	// canceled state to propagate.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/sweeps")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Sweeps []api.SweepStatus `json:"sweeps"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Sweeps) == 1 && list.Sweeps[0].State == api.StateCanceled {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("wait-mode sweep was not canceled by client disconnect")
}

// TestResultPersistenceServesRepeats checks that with a result
// directory configured, an identical repeat sweep is served from disk:
// same results, no additional compilation.
func TestResultPersistenceServesRepeats(t *testing.T) {
	dir := t.TempDir()
	g := testGrid()
	srv, ts := newTestServer(t, Options{Store: resultstore.Open(dir)})
	first := waitTerminal(t, ts, submit(t, ts, api.SweepRequest{Grid: &g}, "").ID)
	if first.State != api.StateDone {
		t.Fatalf("first sweep: %+v", first)
	}
	compiles, _ := srv.cache.Stats()

	second := waitTerminal(t, ts, submit(t, ts, api.SweepRequest{Grid: &g}, "").ID)
	if second.State != api.StateDone {
		t.Fatalf("second sweep: %+v", second)
	}
	if again, _ := srv.cache.Stats(); again != compiles {
		t.Errorf("repeat sweep compiled kernels (%d -> %d); want disk-served", compiles, again)
	}
	if got, want := fingerprint(t, api.SweepResults(second.Results)), fingerprint(t, api.SweepResults(first.Results)); got != want {
		t.Errorf("disk-served results differ:\n%s\nvs\n%s", got, want)
	}

	// The cache-hit accounting: the cold sweep hit nothing, the warm
	// sweep was served entirely from the store, per-result and in the
	// status aggregate.
	if first.CacheHits != 0 {
		t.Errorf("cold sweep reports %d cache hits, want 0", first.CacheHits)
	}
	if second.CacheHits != second.Total {
		t.Errorf("warm sweep reports %d cache hits, want %d", second.CacheHits, second.Total)
	}
	for _, r := range second.Results {
		if !r.Cached {
			t.Errorf("warm result %s not marked cached", r.Job.Label)
		}
	}

	// The store outlives the server: a fresh server on the same
	// directory — a restart — serves the same sweep without simulating.
	srv2, ts2 := newTestServer(t, Options{Store: resultstore.Open(dir)})
	third := waitTerminal(t, ts2, submit(t, ts2, api.SweepRequest{Grid: &g}, "").ID)
	if third.State != api.StateDone || third.CacheHits != third.Total {
		t.Errorf("restarted server: state %s, %d/%d cache hits; want done and all hits",
			third.State, third.CacheHits, third.Total)
	}
	if compiles, _ := srv2.cache.Stats(); compiles != 0 {
		t.Errorf("restarted server compiled %d kernels for a stored sweep, want 0", compiles)
	}
}

func storeStatus(t *testing.T, ts *httptest.Server, method string) (api.StoreStatus, int) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+"/v1/store", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.StoreStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// TestStoreEndpoints checks GET /v1/store (entry count and traffic
// counters) and DELETE /v1/store (clearing forces re-simulation), and
// that both 404 without a configured result directory.
func TestStoreEndpoints(t *testing.T) {
	g := testGrid()

	_, ts := newTestServer(t, Options{})
	if _, code := storeStatus(t, ts, http.MethodGet); code != http.StatusNotFound {
		t.Errorf("GET /v1/store without a store: %d, want 404", code)
	}
	if _, code := storeStatus(t, ts, http.MethodDelete); code != http.StatusNotFound {
		t.Errorf("DELETE /v1/store without a store: %d, want 404", code)
	}

	_, ts = newTestServer(t, Options{Store: resultstore.Open(t.TempDir())})
	first := waitTerminal(t, ts, submit(t, ts, api.SweepRequest{Grid: &g}, "").ID)
	if first.State != api.StateDone {
		t.Fatalf("first sweep: %+v", first)
	}
	st, code := storeStatus(t, ts, http.MethodGet)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/store: %d", code)
	}
	if st.Entries != first.Total || st.Puts != int64(first.Total) {
		t.Errorf("store after cold sweep: %+v, want %d entries and puts", st, first.Total)
	}

	if _, code := storeStatus(t, ts, http.MethodDelete); code != http.StatusOK {
		t.Fatalf("DELETE /v1/store: %d", code)
	}
	st, _ = storeStatus(t, ts, http.MethodGet)
	if st.Entries != 0 {
		t.Errorf("store not empty after clear: %+v", st)
	}

	// With the store cleared, the same grid simulates afresh (no hits),
	// repopulating the store.
	second := waitTerminal(t, ts, submit(t, ts, api.SweepRequest{Grid: &g}, "").ID)
	if second.CacheHits != 0 {
		t.Errorf("post-clear sweep reports %d cache hits, want 0", second.CacheHits)
	}
	st, _ = storeStatus(t, ts, http.MethodGet)
	if st.Entries != second.Total {
		t.Errorf("store not repopulated after clear: %+v", st)
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

// TestWaitParam checks explicit false values stay asynchronous, and
// that the same parser defaults an absent ?results to true.
func TestWaitParam(t *testing.T) {
	for v, want := range map[string]bool{"": false, "0": false, "false": false, "1": true, "true": true} {
		got, err := queryBool("wait", v, false)
		if err != nil || got != want {
			t.Errorf("queryBool(wait=%q) = %v, %v; want %v", v, got, err, want)
		}
	}
	if _, err := queryBool("wait", "yes-please", false); err == nil {
		t.Error("garbage wait value accepted")
	}
	for v, want := range map[string]bool{"": true, "0": false, "false": false, "1": true} {
		got, err := queryBool("results", v, true)
		if err != nil || got != want {
			t.Errorf("queryBool(results=%q) = %v, %v; want %v", v, got, err, want)
		}
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
	for _, path := range []string{"/v1/sweeps/nope", "/v1/sweeps/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
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

// TestHealthzV1 exercises the structured health document: service
// identity, load and store stats, cheap enough for a periodic ping.
func TestHealthzV1(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{Store: resultstore.Open(dir)})

	fetch := func() api.Health {
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

	h := fetch()
	if h.Service != "vliwserve" {
		t.Errorf("service %q, want vliwserve", h.Service)
	}
	if h.Version != api.Version {
		t.Errorf("version %d, want %d", h.Version, api.Version)
	}
	if h.GoVersion == "" {
		t.Error("health lacks the Go version")
	}
	if h.ActiveSweeps != 0 {
		t.Errorf("idle server reports %d active sweeps", h.ActiveSweeps)
	}
	if h.Store == nil {
		t.Fatal("store-backed server reports no store stats")
	}

	// A finished sweep moves the store counters the document reports.
	g := testGrid()
	st := submit(t, ts, api.SweepRequest{Grid: &g}, "?wait=1")
	if st.State != api.StateDone {
		t.Fatalf("sweep state %s", st.State)
	}
	h = fetch()
	if h.Store.Puts == 0 {
		t.Error("store puts not visible in health after a sweep")
	}

	// A storeless server still names itself vliwserve and omits the
	// store block.
	_, plain := newTestServer(t, Options{})
	resp, err := http.Get(plain.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ph, err := api.DecodeHealth(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Service != "vliwserve" {
		t.Errorf("storeless service %q, want vliwserve", ph.Service)
	}
	if ph.Store != nil {
		t.Error("storeless server reports store stats")
	}
}
