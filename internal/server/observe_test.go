package server

// Observability of the HTTP front-end: the /metrics scrape across a
// cold-then-warm store sweep, concurrent NDJSON subscribers, error
// surfacing in events and statuses, and the debug endpoints' opt-out.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vliwmt/internal/api"
	"vliwmt/internal/resultstore"
	"vliwmt/internal/sweep"
	"vliwmt/internal/telemetry"
)

// scrapeMetric fetches /metrics and sums every series of the named
// family (labelled series included), so per-route counters and plain
// counters read the same way.
func scrapeMetric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed metrics line %q", line)
		}
		family, _, _ := strings.Cut(series, "{")
		if family != name {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestMetricsScrapeColdWarm runs the same grid twice against one
// result store and checks the scrape tells the story: the cold sweep
// moves completions, misses and puts with zero hits, and the warm
// sweep moves hits by every job.
func TestMetricsScrapeColdWarm(t *testing.T) {
	g := testGrid()
	_, ts := newTestServer(t, Options{Store: resultstore.Open(t.TempDir())})
	base := map[string]float64{}
	for _, name := range []string{
		"sweep_jobs_completed_total", "store_hits_total",
		"store_misses_total", "store_puts_total", "server_sweeps_submitted_total",
	} {
		base[name] = scrapeMetric(t, ts, name)
	}
	delta := func(name string) float64 { return scrapeMetric(t, ts, name) - base[name] }

	cold := waitTerminal(t, ts, submit(t, ts, api.SweepRequest{Grid: &g}).ID)
	if cold.State != api.StateDone || cacheHits(cold) != 0 {
		t.Fatalf("cold sweep: %+v", cold)
	}
	if d := delta("sweep_jobs_completed_total"); d != 4 {
		t.Errorf("cold sweep moved sweep_jobs_completed_total by %v, want 4", d)
	}
	if d := delta("store_hits_total"); d != 0 {
		t.Errorf("cold sweep moved store_hits_total by %v, want 0", d)
	}
	if d := delta("store_misses_total"); d != 4 {
		t.Errorf("cold sweep moved store_misses_total by %v, want 4", d)
	}
	if d := delta("store_puts_total"); d != 4 {
		t.Errorf("cold sweep moved store_puts_total by %v, want 4", d)
	}

	warm := waitTerminal(t, ts, submit(t, ts, api.SweepRequest{Grid: &g}).ID)
	if warm.State != api.StateDone || cacheHits(warm) != 4 {
		t.Fatalf("warm sweep not fully served from the store: %+v", warm)
	}
	if d := delta("store_hits_total"); d != 4 {
		t.Errorf("warm sweep moved store_hits_total by %v, want 4", d)
	}
	if d := delta("sweep_jobs_completed_total"); d != 8 {
		t.Errorf("two sweeps moved sweep_jobs_completed_total by %v, want 8", d)
	}
	if d := delta("server_sweeps_submitted_total"); d != 2 {
		t.Errorf("server_sweeps_submitted_total moved by %v, want 2", d)
	}
}

// TestDebugEndpointsOptOut checks DisableDebug removes exactly the
// observability surface: /metrics and /debug/pprof/ 404, the v1 API
// stays.
func TestDebugEndpointsOptOut(t *testing.T) {
	_, on := newTestServer(t, Options{})
	for _, path := range []string{"/metrics", "/debug/pprof/cmdline"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s, want 200 by default", path, resp.Status)
		}
	}
	_, off := newTestServer(t, Options{DisableDebug: true})
	for _, path := range []string{"/metrics", "/debug/pprof/cmdline"} {
		resp, err := http.Get(off.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with DisableDebug: %s, want 404", path, resp.Status)
		}
	}
	resp, err := http.Get(off.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/healthz with DisableDebug: %s", resp.Status)
	}
}

// streamEvents subscribes to a sweep's NDJSON stream and reads until
// the terminal event, the context is cancelled, or stopAfter job
// events have arrived (0: no limit). It returns the done counts of
// the job events seen, every top-level err string, and the terminal
// state ("" if the stream ended early).
func streamEvents(ctx context.Context, ts *httptest.Server, id string, stopAfter int) (dones []int, errs []string, state api.State, err error) {
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return nil, nil, "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, "", err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev api.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return dones, errs, "", err
		}
		if ev.Result != nil {
			dones = append(dones, ev.Done)
			if ev.Err != "" {
				errs = append(errs, ev.Err)
			}
			if ev.Err != ev.Result.Err {
				errs = append(errs, "top-level err "+ev.Err+" != result err "+ev.Result.Err)
			}
		}
		if ev.Terminal() {
			return dones, errs, ev.State, nil
		}
		if stopAfter > 0 && len(dones) >= stopAfter {
			return dones, errs, "", nil // simulated disconnect
		}
	}
	return dones, errs, "", sc.Err()
}

// TestConcurrentEventSubscribers attaches three NDJSON subscribers to
// one running sweep. The two that stay must both observe the complete
// increment-by-one done sequence and the terminal event; the one that
// disconnects mid-stream must not stall them (broadcasts are
// non-blocking sends into per-subscriber buffers).
func TestConcurrentEventSubscribers(t *testing.T) {
	g := testGrid()
	g.InstrLimit = 100_000 // keep the sweep in flight while subscribers attach
	_, ts := newTestServer(t, Options{})
	st := submit(t, ts, api.SweepRequest{Grid: &g, Workers: 1})

	type stream struct {
		dones []int
		state api.State
		err   error
	}
	var wg sync.WaitGroup
	streams := make([]stream, 3)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stopAfter := 0
			if i == 0 {
				stopAfter = 1 // this subscriber walks away after one job event
			}
			dones, _, state, err := streamEvents(ctx, ts, st.ID, stopAfter)
			streams[i] = stream{dones: dones, state: state, err: err}
		}(i)
	}
	wg.Wait()

	if err := streams[0].err; err != nil {
		t.Fatalf("disconnecting subscriber: %v", err)
	}
	if len(streams[0].dones) < 1 {
		t.Error("disconnecting subscriber saw no job events before leaving")
	}
	for i, s := range streams[1:] {
		if s.err != nil {
			t.Fatalf("subscriber %d: %v", i+1, s.err)
		}
		if s.state != api.StateDone {
			t.Errorf("subscriber %d ended with state %q, want done — a disconnecting peer stalled the stream", i+1, s.state)
		}
		if len(s.dones) != st.Total {
			t.Fatalf("subscriber %d saw %d job events, want %d", i+1, len(s.dones), st.Total)
		}
		for k, d := range s.dones {
			if d != k+1 {
				t.Fatalf("subscriber %d done sequence %v not an increment-by-one series", i+1, s.dones)
			}
		}
	}
}

// TestJobErrorsSurfaced submits a sweep whose second job fails at
// runtime (a valid machine without memory units passes submit-time
// validation but cannot compile a kernel with loads) and checks the
// failure is visible everywhere the API reports job outcomes: the
// event's top-level err string, the failed result in the terminal
// status and the status's joined error string.
func TestJobErrorsSurfaced(t *testing.T) {
	jobs, err := testGrid().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	good, bad := jobs[0], jobs[1]
	// Cushion so the stream attaches mid-sweep: the good job must
	// outlast the HTTP round-trip that subscribes to the event stream,
	// or the per-job replay log is already dropped (finish keeps only
	// the terminal event). Sized well above the simulator's current
	// throughput without bloating the race-detector run.
	good.InstrLimit = 1_500_000
	req := api.SweepRequest{Jobs: []sweep.Job{good, bad}, Workers: 1}
	// Submit rejects a job that fails Job.Validate, so a job error can
	// only arise in the executor. This one runs the second job on a
	// machine without memory units, which its kernels cannot compile for.
	exec := func(ctx context.Context, jobs []sweep.Job, workers int, progress sweep.ProgressFunc) ([]sweep.Result, error) {
		jobs = slices.Clone(jobs)
		jobs[1].Machine.MemUnits = 0
		e := sweep.New(workers)
		e.SetProgress(progress)
		return e.Run(ctx, jobs)
	}

	_, ts := newTestServer(t, Options{Execute: exec})
	st := submit(t, ts, req)
	dones, errStrings, state, err := streamEvents(context.Background(), ts, st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if state != api.StateFailed {
		t.Errorf("terminal state %q, want failed", state)
	}
	if len(dones) != 2 {
		t.Fatalf("saw %d job events, want 2", len(dones))
	}
	if len(errStrings) != 1 || !strings.Contains(errStrings[0], "unit on cluster") {
		t.Errorf("event err strings %q, want the one job's compile error", errStrings)
	}

	final := waitTerminal(t, ts, st.ID)
	if len(final.Results) != 2 || final.Results[0].Err != "" || final.Results[1].Err == "" {
		t.Errorf("terminal results %+v, want the second of 2 jobs failed", final.Results)
	}
	if final.Error == "" {
		t.Error("terminal status carries no joined error string")
	}
}

// syncBuffer is a bytes.Buffer safe for the server's goroutines to
// write while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestLifecycleLogRecords checks the server's three lifecycle lines are
// structured records on the trace logger, and that a sweep's records
// carry the same "sweep" attribute as the engine's span records.
func TestLifecycleLogRecords(t *testing.T) {
	old := slog.Default()
	defer slog.SetDefault(old)
	var buf syncBuffer
	if _, err := telemetry.ConfigureSlog(&buf, "info", true); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Store: resultstore.Open(t.TempDir())})
	g := testGrid()
	st := waitTerminal(t, ts, submit(t, ts, api.SweepRequest{Grid: &g, Workers: 2}).ID)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The finished record is written just after the run turns terminal.
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(buf.String(), `"msg":"sweep finished"`) && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}

	records := map[string]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q is not a JSON record: %v", line, err)
		}
		if id, _ := rec["sweep"].(string); id == st.ID {
			records[rec["msg"].(string)] = rec
		}
	}
	for _, msg := range []string{"sweep submitted", "sweep start", "sweep finished", "sweep cancel requested"} {
		if records[msg] == nil {
			t.Errorf("no %q record for sweep %s in:\n%s", msg, st.ID, buf.String())
		}
	}
	if fin := records["sweep finished"]; fin != nil {
		if fin["state"] != string(api.StateDone) || fin["done"] != 4.0 || fin["total"] != 4.0 {
			t.Errorf("finished record %v; want state done, 4/4 jobs", fin)
		}
	}
	// The sweep's counts are the engine's: its finish record, under
	// the same sweep attribute, carries the roll-up of the results.
	if fin := records["sweep finish"]; fin == nil {
		t.Errorf("no engine \"sweep finish\" record for sweep %s", st.ID)
	} else if fin["jobs"] != 4.0 || fin["errors"] != 0.0 || fin["store_hits"] != 0.0 {
		t.Errorf("engine finish record %v; want 4 jobs, no errors, no store hits", fin)
	}
}
