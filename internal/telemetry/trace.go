package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

// sweepIDKey is the context key carrying a sweep's trace ID from the
// HTTP handler (or CLI) through the engine's span events down to the
// store probes logged on its behalf.
type sweepIDKey struct{}

// WithSweepID returns a context carrying the sweep trace ID.
func WithSweepID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, sweepIDKey{}, id)
}

// SweepIDFrom returns the context's sweep trace ID, or "".
func SweepIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(sweepIDKey{}).(string)
	return id
}

// sweepSeq numbers locally generated sweep IDs.
var sweepSeq atomic.Int64

// EnsureSweepID returns the context's sweep ID, generating and
// attaching a process-unique local one ("local-<n>") when the caller
// did not provide any — so engine span events always carry an ID,
// whether the sweep came over HTTP (server-assigned "<prefix>-<n>") or
// from an in-process call.
func EnsureSweepID(ctx context.Context) (context.Context, string) {
	if id := SweepIDFrom(ctx); id != "" {
		return ctx, id
	}
	id := fmt.Sprintf("local-%d", sweepSeq.Add(1))
	return WithSweepID(ctx, id), id
}

// ParseLevel converts a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn or error)", s)
}

// traceConfigured flips once ConfigureSlog runs. Until then
// TraceLogger returns a discard logger: the library must not start
// writing span events to stderr in processes that never asked for
// tracing (every pre-existing CLI, test and embedder).
var traceConfigured atomic.Bool

// discardLogger drops everything; see TraceLogger.
var discardLogger = slog.New(slog.DiscardHandler)

// TraceLogger returns the logger for span-style trace events: the
// process-wide slog default once ConfigureSlog has installed one, and
// a discard logger before that. Callers hold the result for the span's
// life (one sweep), so a mid-sweep ConfigureSlog affects the next
// sweep, not the running one.
func TraceLogger() *slog.Logger {
	if traceConfigured.Load() {
		return slog.Default()
	}
	return discardLogger
}

// ConfigureSlog installs the process-wide slog default used by the
// span-style tracing: level from a -log-level flag value, text or JSON
// handler per -log-json, writing to w (typically os.Stderr). It also
// arms TraceLogger, so the engine's sweep spans start flowing. It
// returns the resolved level so CLIs can gate their own verbosity.
func ConfigureSlog(w io.Writer, level string, json bool) (slog.Level, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return 0, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	slog.SetDefault(slog.New(h))
	traceConfigured.Store(true)
	return lv, nil
}
