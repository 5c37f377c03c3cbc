package api

import (
	"encoding/json"
	"fmt"
	"io"

	"vliwmt/internal/sweep"
)

// State is the lifecycle of a submitted sweep.
type State string

const (
	// StateRunning means jobs are still executing.
	StateRunning State = "running"
	// StateDone means every job finished without a sweep-level error.
	StateDone State = "done"
	// StateFailed means the sweep finished but at least one job failed.
	StateFailed State = "failed"
	// StateCanceled means the sweep was canceled (DELETE or server
	// shutdown) before completing.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// SweepRequest is the body of POST /v1/sweeps: a declarative Grid
// (expanded with the same defaulting as in-process Grid.Jobs), an
// explicit job set, or both; Expand gives the jobs either way. Workers
// is a hint for the server's pool size; because sweep results are
// deterministic at any worker count it never changes the results, only
// the wall-clock time.
type SweepRequest struct {
	Version int         `json:"version"`
	Grid    *sweep.Grid `json:"grid,omitempty"`
	Jobs    []sweep.Job `json:"jobs,omitempty"`
	Workers int         `json:"workers,omitempty"`
}

// Expand returns the request's job set: the grid's jobs first, then
// the explicit ones, in document order. The server and vliwsweep -jobs
// both run exactly this list.
func (req SweepRequest) Expand() ([]sweep.Job, error) {
	var jobs []sweep.Job
	if req.Grid != nil {
		var err error
		if jobs, err = req.Grid.Jobs(); err != nil {
			return nil, err
		}
	}
	return append(jobs, req.Jobs...), nil
}

// SweepStatus is the body of the submit and cancel replies, without
// results, and the status of the terminal NDJSON event, with the
// results ordered by job index. A sweep's roll-up (jobs, errors, store
// hits, latency percentiles) is not part of the document: it is
// sweep.Summarize over the results, on either side of the wire.
type SweepStatus struct {
	Version int      `json:"version"`
	ID      string   `json:"id"`
	State   State    `json:"state"`
	Done    int      `json:"done"`
	Total   int      `json:"total"`
	Results []Result `json:"results,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// Health is the body of GET /v1/healthz (additive within wire
// version 3): a structured liveness document for load balancers and
// monitors — build identity and current load — cheap enough to poll.
// Store traffic is on /metrics (the store_* counters).
type Health struct {
	Version int    `json:"version"`
	Service string `json:"service"`
	// GoVersion and Revision identify the build (Revision is the VCS
	// commit when the binary embeds one, else empty).
	GoVersion string `json:"go_version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	// ActiveSweeps counts the server's sweeps that have not reached a
	// terminal state; UptimeSec is the server's age. Both answer "is
	// this box alive and how loaded".
	ActiveSweeps int     `json:"active_sweeps"`
	UptimeSec    float64 `json:"uptime_sec,omitempty"`
}

// DecodeHealth reads and version-checks a health document.
func DecodeHealth(r io.Reader) (Health, error) {
	var h Health
	if err := json.NewDecoder(r).Decode(&h); err != nil {
		return h, fmt.Errorf("api: decode health: %w", err)
	}
	if err := CheckVersion(h.Version); err != nil {
		return h, err
	}
	return h, nil
}

// Event is one line of the NDJSON progress stream
// (GET /v1/sweeps/{id}/events): a per-job completion event carries the
// result (unless the stream was requested with ?results=false, which
// leaves Result off and keeps Done, Total and Err); the final event
// carries the terminal State instead. Err
// surfaces a failed job's error string at the event's top level, so a
// stream consumer spots failures without digging into the result
// document (it duplicates Result.Err; additive within version 3).
// Status rides on the terminal event only, and is required there: the
// final SweepStatus, ordered results included, so the stream alone
// tells a client the outcome (added within version 3; a terminal event
// without it is a protocol error to vliwmt.Client).
type Event struct {
	Done   int          `json:"done"`
	Total  int          `json:"total"`
	Result *Result      `json:"result,omitempty"`
	Err    string       `json:"err,omitempty"`
	State  State        `json:"state,omitempty"`
	Status *SweepStatus `json:"status,omitempty"`
}

// Terminal reports whether this is the stream's final event.
func (e Event) Terminal() bool { return e.State.Terminal() }

// CheckVersion validates a decoded document's version field: versions
// 1 through the current Version and zero (pre-versioning documents)
// are accepted. Older documents decode correctly because every field
// added since version 1 is optional with version-1 semantics when
// absent.
func CheckVersion(v int) error {
	if v < 0 || v > Version {
		return fmt.Errorf("api: unsupported wire version %d (this build speaks 1..%d)", v, Version)
	}
	return nil
}

// EncodeSweepRequest writes req as versioned JSON.
func EncodeSweepRequest(w io.Writer, req SweepRequest) error {
	req.Version = Version
	return json.NewEncoder(w).Encode(req)
}

// DecodeSweepRequest reads and version-checks a sweep request.
func DecodeSweepRequest(r io.Reader) (SweepRequest, error) {
	var req SweepRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return req, fmt.Errorf("api: decode sweep request: %w", err)
	}
	if err := CheckVersion(req.Version); err != nil {
		return req, err
	}
	if req.Grid == nil && len(req.Jobs) == 0 {
		return req, fmt.Errorf("api: sweep request has neither a grid nor jobs")
	}
	return req, nil
}

// DecodeSweepStatus reads and version-checks a sweep status.
func DecodeSweepStatus(r io.Reader) (SweepStatus, error) {
	var st SweepStatus
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return st, fmt.Errorf("api: decode sweep status: %w", err)
	}
	if err := CheckVersion(st.Version); err != nil {
		return st, err
	}
	return st, nil
}
