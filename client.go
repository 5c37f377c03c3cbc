package vliwmt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
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

// Ping checks that the server is up.
func (c *Client) Ping(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("vliwmt: server health check: %s", resp.Status)
	}
	return nil
}

// ServerHealth is the structured liveness document served by
// GET /v1/healthz on vliwserve: build identity, current load and (when
// persistence is configured) result-store traffic.
type ServerHealth = api.Health

// Health fetches the server's structured health document — a richer
// probe than Ping, exposing active sweeps and store counters.
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

// submit posts the request and follows it to completion. Of opts it
// reads Workers, sent as the server's pool-size hint, and Progress.
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
	st, err := c.postJSON(ctx, "/v1/sweeps", body.Bytes())
	if err != nil {
		return nil, err
	}

	// Follow the event stream for progress and the final status; if
	// the stream breaks while the context is still live, fall back to
	// polling the status endpoint.
	delivered := map[int]bool{}
	progress := o.Progress
	if progress != nil {
		inner := progress
		progress = func(done, total int, r SweepResult) {
			delivered[r.Index] = true
			inner(done, total, r)
		}
	}
	final, err := c.follow(ctx, st.ID, progress)
	if err != nil && ctx.Err() == nil {
		final, err = c.waitTerminal(ctx, st.ID)
	}
	if err != nil {
		if ctx.Err() != nil {
			return c.abandon(st.ID, ctx.Err())
		}
		return nil, err
	}
	results := api.SweepResults(final.Results)
	// A sweep that finished before the event stream attached replays
	// only its terminal event, and a stream that broke mid-sweep
	// delivered only a prefix; synthesize callbacks for the jobs the
	// stream missed so the sink always sees every job exactly once.
	if o.Progress != nil {
		done := len(delivered)
		for _, r := range results {
			if !delivered[r.Index] {
				done++
				o.Progress(done, len(results), r)
			}
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

// abandon cancels the remote sweep and returns whatever the server had
// aggregated, mirroring the in-process partial-results contract.
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
	if st, serr := c.waitTerminal(ctx, id); serr == nil {
		results = api.SweepResults(st.Results)
	}
	return results, cause
}

// follow consumes the NDJSON event stream until the terminal event and
// returns the final status that event carries. A terminal event
// without one (from a server that predates the field) costs one status
// request instead. The stream is read by a single json.Decoder, so no
// line-length cap applies: a terminal event carries every result of
// the sweep and grows with it. Without a progress callback the stream
// is requested with ?results=false: the per-job events then carry no
// results, which the terminal status delivers anyway. A server that
// predates the parameter ignores it; the per-job results it then sends
// are decoded and dropped.
func (c *Client) follow(ctx context.Context, id string, progress func(done, total int, r SweepResult)) (api.SweepStatus, error) {
	url := c.baseURL + "/v1/sweeps/" + id + "/events"
	if progress == nil {
		url += "?results=false"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return api.SweepStatus{}, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return api.SweepStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return api.SweepStatus{}, fmt.Errorf("vliwmt: event stream: %s: %s", resp.Status, readError(resp.Body))
	}
	dec := json.NewDecoder(resp.Body)
	var ev api.Event
	for !ev.Terminal() {
		ev = api.Event{}
		if err := dec.Decode(&ev); err == io.EOF {
			return api.SweepStatus{}, fmt.Errorf("vliwmt: event stream for sweep %s ended before the terminal event", id)
		} else if err != nil {
			return api.SweepStatus{}, fmt.Errorf("vliwmt: event stream for sweep %s: %w", id, err)
		}
		if ev.Result != nil && progress != nil {
			progress(ev.Done, ev.Total, ev.Result.Sweep())
		}
	}
	drainClose(resp.Body)
	if ev.Status == nil {
		return c.status(ctx, id)
	}
	return *ev.Status, api.CheckVersion(ev.Status.Version)
}

// pollFailureBudget bounds the consecutive transient status failures
// the polling loop rides out — at pollInterval apart, about five
// seconds of server restart or network flap — before giving up.
const (
	pollInterval      = 100 * time.Millisecond
	pollFailureBudget = 50
)

func (c *Client) waitTerminal(ctx context.Context, id string) (api.SweepStatus, error) {
	failures := 0
	for {
		st, err := c.status(ctx, id)
		switch {
		case err == nil:
			failures = 0
			if st.State.Terminal() {
				return st, nil
			}
		case isTransient(err) && ctx.Err() == nil:
			// A flaky or restarting server answers again shortly; the
			// sweep itself is unaffected (runs survive on the server,
			// results are re-fetchable). Keep polling for a while.
			if failures++; failures > pollFailureBudget {
				return st, err
			}
		default:
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

func (c *Client) status(ctx context.Context, id string) (api.SweepStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/v1/sweeps/"+id, nil)
	if err != nil {
		return api.SweepStatus{}, err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return api.SweepStatus{}, &transientError{err}
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("vliwmt: sweep %s status: %s: %s", id, resp.Status, readError(resp.Body))
		if transientStatus(resp.StatusCode) {
			return api.SweepStatus{}, &transientError{err}
		}
		return api.SweepStatus{}, err
	}
	return api.DecodeSweepStatus(resp.Body)
}

// submitAttempts bounds postJSON's tries: the first submission plus
// three retries of transient failures.
const submitAttempts = 4

// postJSON submits the request body, retrying transient failures —
// transport errors and 502/503/504 responses from a worker mid-restart
// or an overloaded proxy — with exponential backoff and jitter. The
// body is a byte slice precisely so every attempt can resend it from
// the start. Non-transient rejections (e.g. a 400 for a malformed
// grid) fail immediately.
func (c *Client) postJSON(ctx context.Context, path string, body []byte) (api.SweepStatus, error) {
	var lastErr error
	for attempt := 0; attempt < submitAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return api.SweepStatus{}, ctx.Err()
			case <-time.After(retryDelay(attempt)):
			}
		}
		st, err := c.postJSONOnce(ctx, path, body)
		if err == nil || !isTransient(err) || ctx.Err() != nil {
			return st, err
		}
		lastErr = err
	}
	return api.SweepStatus{}, fmt.Errorf("vliwmt: submit failed after %d attempts: %w", submitAttempts, lastErr)
}

func (c *Client) postJSONOnce(ctx context.Context, path string, body []byte) (api.SweepStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+path, bytes.NewReader(body))
	if err != nil {
		return api.SweepStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(req)
	if err != nil {
		return api.SweepStatus{}, &transientError{err}
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("vliwmt: submit sweep: %s: %s", resp.Status, readError(resp.Body))
		if transientStatus(resp.StatusCode) {
			return api.SweepStatus{}, &transientError{err}
		}
		return api.SweepStatus{}, err
	}
	return api.DecodeSweepStatus(resp.Body)
}

// retryDelay is the backoff before the attempt-th retry: 100ms
// doubling per attempt, jittered to half-to-full so a burst of
// clients doesn't re-submit in lockstep.
func retryDelay(attempt int) time.Duration {
	d := 100 * time.Millisecond << (attempt - 1)
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// transientError marks a failure worth retrying: the request may never
// have reached the server, or the server signalled a temporary
// condition.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func isTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// transientStatus reports whether an HTTP status signals a temporary
// server-side condition rather than a rejected request.
func transientStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
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
