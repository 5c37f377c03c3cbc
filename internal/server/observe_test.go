package server

// Observability of the HTTP front-end: the /metrics scrape across a
// cold-then-warm store sweep, concurrent NDJSON subscribers, error
// surfacing in events and statuses, and the debug endpoints' opt-out.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vliwmt/internal/api"
	"vliwmt/internal/resultstore"
	"vliwmt/internal/sweep"
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
// moves completions, misses and puts with zero hits; the warm sweep
// moves hits by every job; and the wire summary's cache-hit ratio
// goes from 0 to 1.
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

	cold := submit(t, ts, api.SweepRequest{Grid: &g}, "?wait=1")
	if cold.State != api.StateDone || cold.CacheHits != 0 || cold.Errors != 0 {
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
	if cold.Summary == nil || cold.Summary.Jobs != 4 || cold.Summary.CacheHitRatio != 0 {
		t.Errorf("cold summary: %+v", cold.Summary)
	}

	warm := submit(t, ts, api.SweepRequest{Grid: &g}, "?wait=1")
	if warm.State != api.StateDone || warm.CacheHits != 4 {
		t.Fatalf("warm sweep not fully served from the store: %+v", warm)
	}
	if d := delta("store_hits_total"); d != 4 {
		t.Errorf("warm sweep moved store_hits_total by %v, want 4", d)
	}
	if d := delta("sweep_jobs_completed_total"); d != 8 {
		t.Errorf("two sweeps moved sweep_jobs_completed_total by %v, want 8", d)
	}
	if warm.Summary == nil || warm.Summary.CacheHitRatio != 1 || warm.Summary.Jobs != 4 {
		t.Errorf("warm summary: %+v", warm.Summary)
	}
	if warm.Summary != nil && !(warm.Summary.JobsPerSec > 0) {
		t.Errorf("warm summary throughput %v, want > 0", warm.Summary.JobsPerSec)
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
	resp, err := http.Get(off.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz with DisableDebug: %s", resp.Status)
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
	st := submit(t, ts, api.SweepRequest{Grid: &g, Workers: 1}, "")

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
// event's top-level err string, the status's errors count and the
// terminal summary.
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
	bad.Machine.MemUnits = 0
	req := api.SweepRequest{Jobs: []sweep.Job{good, bad}, Workers: 1}

	_, ts := newTestServer(t, Options{})
	st := submit(t, ts, req, "")
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
	if final.Errors != 1 {
		t.Errorf("status errors = %d, want 1", final.Errors)
	}
	if final.Summary == nil || final.Summary.Errors != 1 || final.Summary.Jobs != 2 {
		t.Errorf("terminal summary %+v, want 2 jobs with 1 error", final.Summary)
	}
	if final.Error == "" {
		t.Error("terminal status carries no joined error string")
	}
}
