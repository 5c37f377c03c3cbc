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
	// StateCanceled means the sweep was canceled (DELETE, client
	// disconnect in wait mode, or server shutdown) before completing.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// SweepRequest is the body of POST /v1/sweeps: either a declarative
// Grid (expanded server-side with the same defaulting as in-process
// Grid.Jobs) or an explicit job set. Workers is a hint for the server's
// pool size; because sweep results are deterministic at any worker
// count it never changes the results, only the wall-clock time.
type SweepRequest struct {
	Version int         `json:"version"`
	Grid    *sweep.Grid `json:"grid,omitempty"`
	Jobs    []sweep.Job `json:"jobs,omitempty"`
	Workers int         `json:"workers,omitempty"`
	Tag     string      `json:"tag,omitempty"`
}

// SweepStatus is the body of sweep submission and status responses.
// Results are included once the sweep reaches a terminal state, ordered
// by job index. CacheHits (wire version 3) counts the jobs served from
// the persistent result store instead of being simulated; Errors
// counts jobs that finished with an error, so a client can see
// failures without fetching the full result blob. Summary is the
// lifecycle roll-up, attached once the sweep is terminal. Errors and
// Summary are additive, omitted-when-empty fields within version 3: a
// version-3 peer that predates them decodes documents carrying them
// unchanged (unknown JSON fields are ignored) and emits documents
// without them (absent means zero/none).
type SweepStatus struct {
	Version   int           `json:"version"`
	ID        string        `json:"id"`
	State     State         `json:"state"`
	Done      int           `json:"done"`
	Total     int           `json:"total"`
	CacheHits int           `json:"cache_hits,omitempty"`
	Errors    int           `json:"errors,omitempty"`
	Summary   *SweepSummary `json:"summary,omitempty"`
	Results   []Result      `json:"results,omitempty"`
	Error     string        `json:"error,omitempty"`
}

// SweepSummary is the wire form of sweep.Summary: the one-line
// lifecycle roll-up of a finished sweep (job/error/store-hit counts,
// per-job latency percentiles, throughput). Attached to terminal
// SweepStatus documents and printed by vliwsweep -stats.
type SweepSummary struct {
	Jobs          int     `json:"jobs"`
	Errors        int     `json:"errors,omitempty"`
	CacheHits     int     `json:"cache_hits,omitempty"`
	CacheHitRatio float64 `json:"cache_hit_ratio,omitempty"`
	WallSec       float64 `json:"wall_sec,omitempty"`
	P50Sec        float64 `json:"p50_sec,omitempty"`
	P99Sec        float64 `json:"p99_sec,omitempty"`
	JobsPerSec    float64 `json:"jobs_per_sec,omitempty"`
}

// Health is the body of GET /v1/healthz (additive within wire
// version 3): a structured liveness document for load balancers and
// monitors — build identity, current load and (when persistence is
// configured) result-store stats — cheap enough to poll, unlike
// GET /v1/store whose entry count walks the disk.
type Health struct {
	Version int    `json:"version"`
	Service string `json:"service"`
	// GoVersion and Revision identify the build (Revision is the VCS
	// commit when the binary embeds one, else empty).
	GoVersion string `json:"go_version,omitempty"`
	Revision  string `json:"revision,omitempty"`
	// ActiveSweeps counts sweeps currently executing; UptimeSec is the
	// server's age. Both answer "is this box alive and how loaded".
	ActiveSweeps int     `json:"active_sweeps"`
	UptimeSec    float64 `json:"uptime_sec,omitempty"`
	// Store carries the result-store traffic counters when persistence
	// is configured (entry counts are deliberately absent — counting
	// walks the store; poll GET /v1/store for them).
	Store *StoreStats `json:"store,omitempty"`
}

// StoreStats is the health document's store roll-up: the handle's
// lifetime traffic counters without the on-disk entry walk.
type StoreStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
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

// StoreStatus is the body of GET /v1/store (wire version 3): the
// server's persistent result store — entry count on disk plus the
// server handle's lifetime traffic counters.
type StoreStatus struct {
	Version int    `json:"version"`
	Entries int    `json:"entries"`
	Hits    int64  `json:"hits"`
	Misses  int64  `json:"misses"`
	Puts    int64  `json:"puts"`
	Error   string `json:"error,omitempty"`
}

// Event is one line of the NDJSON progress stream
// (GET /v1/sweeps/{id}/events): a per-job completion event carries the
// result (unless the stream was requested with ?results=false, which
// leaves Result off and keeps Done, Total and Err); the final event
// carries the terminal State instead. Err
// surfaces a failed job's error string at the event's top level, so a
// stream consumer spots failures without digging into the result
// document (it duplicates Result.Err; additive within version 3).
// Status rides on the terminal event only: the same document
// GET /v1/sweeps/{id} would return, ordered results included, so a
// client learns the outcome without a further request (additive
// within version 3; a server predating it omits the field and the
// client fetches the status instead).
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

// EncodeSweepStatus writes st as versioned JSON.
func EncodeSweepStatus(w io.Writer, st SweepStatus) error {
	st.Version = Version
	return json.NewEncoder(w).Encode(st)
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
