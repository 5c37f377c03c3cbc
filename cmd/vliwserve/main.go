// Command vliwserve serves the sweep engine over HTTP: a remote client
// POSTs a scheme x mix grid (or an explicit job set), streams NDJSON
// progress, and fetches deterministically aggregated results. The
// companion client is vliwmt.Client, and `vliwsweep -addr` submits the
// same grids it runs locally.
//
// Usage:
//
//	vliwserve                                  # listen on :8080
//	vliwserve -addr :9090 -workers 8
//	vliwserve -results /var/cache/vliwmt       # serve repeat sweeps from disk
//
// Endpoints (versioned JSON wire format):
//
//	POST   /v1/sweeps             submit (202 + sweep ID; 413 past
//	                               server.MaxRequestInstrs)
//	GET    /v1/sweeps/{id}/events  NDJSON progress stream; the terminal
//	                               event carries the final status and
//	                               results
//	                               (?results=false: no per-job results)
//	DELETE /v1/sweeps/{id}         cancel
//	GET    /v1/healthz            liveness + load (JSON)
//	GET    /metrics               Prometheus text format, store counters included
//	                               (disable with -debug=false)
//	GET    /debug/pprof/          net/http/pprof      (disable with -debug=false)
//
// Responses are compact JSON. A client needs two requests per sweep:
// the POST, then the event stream. Sweep IDs are opaque and unique
// across restarts. All sweeps share one compile cache
// for the life of the process, and results are bit-identical to an
// in-process run of the same grid and seed at any worker count.
// SIGINT/SIGTERM drain the listener and cancel in-flight sweeps.
//
// Structured tracing goes to stderr via log/slog: every sweep logs its
// lifecycle (submitted, engine start and finish, finished with state
// and counts, cancel requested) as records tagged with its ID in a
// "sweep" attribute. -log-level debug adds a line per job, -log-level
// warn silences the lifecycle records, and -log-json switches to JSON
// lines for log shippers.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vliwmt"
	"vliwmt/internal/server"
	"vliwmt/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vliwserve: ")
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		workers  = flag.Int("workers", 0, "default per-sweep worker pool size (0: runtime.NumCPU())")
		results  = flag.String("results", "", "directory for result persistence (empty: disabled)")
		debug    = flag.Bool("debug", true, "serve GET /metrics (Prometheus text format) and /debug/pprof/")
		logLevel = flag.String("log-level", "info", "structured-trace level: debug, info, warn or error (debug adds a line per job)")
		logJSON  = flag.Bool("log-json", false, "emit structured traces as JSON lines instead of text")
	)
	flag.Parse()

	if _, err := telemetry.ConfigureSlog(os.Stderr, *logLevel, *logJSON); err != nil {
		log.Fatal(err)
	}
	opts := server.Options{Workers: *workers, DisableDebug: !*debug}
	if *results != "" {
		opts.Store = vliwmt.OpenResultStore(*results)
	}
	srv := server.New(opts)
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	log.Printf("listening on http://%s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		stop()
		// Cancel in-flight sweeps first so their event streams reach
		// the terminal event and return, then drain the listener.
		srv.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	// Serve returns ErrServerClosed as soon as Shutdown begins; wait for
	// the drain to finish before exiting the process.
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained
	log.Print("shut down")
}
