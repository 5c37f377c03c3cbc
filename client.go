package vliwmt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"vliwmt/internal/api"
)

// Client submits sweeps to a remote vliwserve instance (cmd/vliwserve)
// over its versioned HTTP API and returns the same SweepResults as an
// in-process call. The determinism contract crosses the wire: a grid
// swept remotely is bit-identical (modulo wall-clock fields) to the
// same grid swept in-process with the same seed, at any worker count
// on either side.
type Client struct {
	baseURL string
	httpc   *http.Client
}

// NewClient returns a client for the server at baseURL, e.g.
// "http://localhost:8080". A bare host:port is given an http scheme.
func NewClient(baseURL string) *Client {
	u := strings.TrimRight(baseURL, "/")
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return &Client{baseURL: u, httpc: &http.Client{}}
}

// ServerHealth is the structured liveness document served by
// GET /v1/healthz on vliwserve: build identity, current load and (when
// persistence is configured) result-store traffic.
type ServerHealth = api.Health

// Health fetches the server's structured health document: a liveness
// probe that also reports active sweeps and store counters.
func (c *Client) Health(ctx context.Context) (ServerHealth, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/v1/healthz", nil)
	if err != nil {
		return ServerHealth{}, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return ServerHealth{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ServerHealth{}, fmt.Errorf("vliwmt: health: %s: %s", resp.Status, readError(resp.Body))
	}
	return api.DecodeHealth(resp.Body)
}

// Sweep submits the grid to the server, which expands it with the same
// defaulting as in-process Grid.Jobs, streams progress into
// opts.Progress, and returns the index-ordered results. Cancelling ctx
// cancels the remote sweep (best-effort DELETE) and returns ctx's
// error with any results the server had aggregated. Every scheme
// spelling crosses the wire as written: paper names, baselines and
// tree expressions mean the same on both ends.
func (c *Client) Sweep(ctx context.Context, g Grid, opts *SweepOptions) ([]SweepResult, error) {
	return c.submit(ctx, api.SweepRequest{Grid: &g}, opts)
}

// SweepJobs submits an explicit job set; see Sweep. A job's typed
// Merge scheme travels as its tree expression, so a custom tree
// reaches the server with its label.
func (c *Client) SweepJobs(ctx context.Context, jobs []SweepJob, opts *SweepOptions) ([]SweepResult, error) {
	return c.submit(ctx, api.SweepRequest{Jobs: jobs}, opts)
}

// submit posts the request once and follows its event stream to the
// terminal event, whose status carries the results. Of opts it reads
// Workers, sent as the server's pool-size hint, and Progress. The POST
// is never retried: it is not idempotent, and a retry after a lost
// reply would run the sweep twice.
func (c *Client) submit(ctx context.Context, sreq api.SweepRequest, opts *SweepOptions) ([]SweepResult, error) {
	var o SweepOptions
	if opts != nil {
		o = *opts
	}
	sreq.Workers = o.Workers

	var body bytes.Buffer
	if err := api.EncodeSweepRequest(&body, sreq); err != nil {
		return nil, err
	}
	st, err := c.post(ctx, &body)
	if err != nil {
		return nil, err
	}

	// A re-attached stream replays the events an earlier one already
	// delivered, and a sweep that finished before the stream attached
	// replays only its terminal event; the delivered set keeps the
	// sink's callbacks exactly-once with monotonic done counts.
	var progress func(done, total int, r SweepResult)
	if o.Progress != nil {
		delivered := map[int]bool{}
		progress = func(_, total int, r SweepResult) {
			if !delivered[r.Index] {
				delivered[r.Index] = true
				o.Progress(len(delivered), total, r)
			}
		}
	}
	final, err := c.follow(ctx, st.ID, progress)
	if err != nil {
		if ctx.Err() != nil {
			return c.abandon(st.ID, ctx.Err())
		}
		return nil, err
	}
	results := api.SweepResults(final.Results)
	if progress != nil {
		for _, r := range results {
			progress(0, len(results), r)
		}
	}
	if final.State == api.StateCanceled {
		// Surface remote cancellation as context.Canceled so callers'
		// errors.Is checks behave exactly as for in-process sweeps.
		return results, fmt.Errorf("vliwmt: sweep %s canceled remotely: %w", final.ID, context.Canceled)
	}
	if final.Error != "" {
		return results, errors.New(final.Error)
	}
	return results, nil
}

// post submits the encoded request with one POST.
func (c *Client) post(ctx context.Context, body *bytes.Buffer) (api.SweepStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/v1/sweeps", body)
	if err != nil {
		return api.SweepStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(req)
	if err != nil {
		return api.SweepStatus{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return api.SweepStatus{}, fmt.Errorf("vliwmt: submit sweep: %s: %s", resp.Status, readError(resp.Body))
	}
	return api.DecodeSweepStatus(resp.Body)
}

// abandon cancels the remote sweep and returns whatever the server had
// aggregated, read from the stream's terminal event, mirroring the
// in-process partial-results contract.
func (c *Client) abandon(id string, cause error) ([]SweepResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.baseURL+"/v1/sweeps/"+id, nil)
	if err == nil {
		if resp, derr := c.httpc.Do(req); derr == nil {
			drainClose(resp.Body)
		}
	}
	var results []SweepResult
	if st, serr := c.follow(ctx, id, nil); serr == nil {
		results = api.SweepResults(st.Results)
	}
	return results, cause
}

// maxReattaches caps how often one call re-attaches to a sweep's event
// stream after the stream answered 200 and then broke.
const maxReattaches = 3

// follow reads the sweep's event stream to the terminal event and
// returns the final status that event carries. A stream that answered
// 200 and then broke while ctx is live is re-attached, up to
// maxReattaches times; the server replays the sweep's history to each
// attach. Any other failure, a non-200 answer included, ends the call.
func (c *Client) follow(ctx context.Context, id string, progress func(done, total int, r SweepResult)) (api.SweepStatus, error) {
	for n := 0; ; n++ {
		st, broke, err := c.stream(ctx, id, progress)
		if !broke || n == maxReattaches || ctx.Err() != nil {
			return st, err
		}
	}
}

// stream makes one attach to the event stream; broke reports that it
// answered 200 and then ended or failed before the terminal event. The
// stream is read by a single json.Decoder, so no line-length cap
// applies: a terminal event carries every result of the sweep and
// grows with it. Without a progress callback the stream is requested
// with ?results=false: the per-job events then carry no results, which
// the terminal status delivers anyway.
func (c *Client) stream(ctx context.Context, id string, progress func(done, total int, r SweepResult)) (st api.SweepStatus, broke bool, err error) {
	url := c.baseURL + "/v1/sweeps/" + id + "/events"
	if progress == nil {
		url += "?results=false"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return st, false, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return st, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, false, fmt.Errorf("vliwmt: event stream for sweep %s: %s: %s", id, resp.Status, readError(resp.Body))
	}
	dec := json.NewDecoder(resp.Body)
	var ev api.Event
	for !ev.Terminal() {
		ev = api.Event{}
		if err := dec.Decode(&ev); err == io.EOF {
			return st, true, fmt.Errorf("vliwmt: event stream for sweep %s ended before the terminal event", id)
		} else if err != nil {
			return st, true, fmt.Errorf("vliwmt: event stream for sweep %s: %w", id, err)
		}
		if ev.Result != nil && progress != nil {
			progress(ev.Done, ev.Total, ev.Result.Sweep())
		}
	}
	drainClose(resp.Body)
	if ev.Status == nil {
		return st, false, fmt.Errorf("vliwmt: event stream for sweep %s: terminal event carries no status", id)
	}
	return *ev.Status, false, api.CheckVersion(ev.Status.Version)
}

// drainClose reads what is left of a response body (up to a small
// bound) before closing it, so the keep-alive connection goes back to
// the pool instead of being torn down: a decoder stops at the end of
// its document, short of the body's end. A body with more left than
// the bound just closes its connection.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	body.Close()
}

// readError drains a small error body for diagnostics.
func readError(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 4<<10))
	return strings.TrimSpace(string(b))
}
