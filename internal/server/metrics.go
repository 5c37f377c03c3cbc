package server

import (
	"net/http"
	"time"

	"vliwmt/internal/telemetry"
)

// Server instruments. Request counters and latency histograms are
// per-route series of one family, so a scrape distinguishes a hot
// /events stream from a hot /v1/sweeps submit path.
var (
	metActiveSweeps = telemetry.NewGauge("server_active_sweeps",
		"Sweeps currently executing.")
	metSweepsSubmitted = telemetry.NewCounter("server_sweeps_submitted_total",
		"Sweeps accepted by POST /v1/sweeps.")
	metEventsEmitted = telemetry.NewCounter("server_events_emitted_total",
		"NDJSON events delivered to subscriber channels.")
	metEventsDropped = telemetry.NewCounter("server_events_dropped_total",
		"NDJSON events dropped because a subscriber channel was full (defensive arm; should stay 0).")
)

// instrumented wraps a route handler with its per-route request
// counter and latency histogram. The ResponseWriter is passed through
// untouched so streaming handlers keep their http.Flusher. The
// duration covers the full handler — for /events streams that is the
// life of the stream, which is exactly what "where did the server's
// time go" should report.
func instrumented(route string, h http.HandlerFunc) http.HandlerFunc {
	labels := `route="` + route + `"`
	requests := telemetry.NewLabeledCounter("server_requests_total", labels,
		"HTTP requests handled, by route.")
	duration := telemetry.NewLabeledHistogram("server_request_duration_seconds", labels,
		"HTTP handler latency, by route (streaming handlers measure the stream's life).",
		telemetry.DurationBuckets)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		requests.Inc()
		h(w, r)
		duration.Observe(time.Since(start).Seconds())
	}
}
