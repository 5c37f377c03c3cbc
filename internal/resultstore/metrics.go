package resultstore

import (
	"time"

	"vliwmt/internal/telemetry"
)

// Process-wide store instruments, the one count of store traffic. They
// aggregate every handle in the process, which is what a scrape wants:
// "is the disk cache working", not "whose handle is it".
var (
	metHits = telemetry.NewCounter("store_hits_total",
		"Store probes served from the store, from disk or from memory.")
	metMemoryHits = telemetry.NewCounter("store_memory_hits_total",
		"Store hits served from a handle's decoded copy of an unchanged entry file (a subset of store_hits_total).")
	metMisses = telemetry.NewCounter("store_misses_total",
		"Store probes that fell through to simulation (including read failures).")
	metReadFailures = telemetry.NewCounter("store_read_failures_total",
		"Store probes that found an entry but could not use it (torn, corrupt, schema or key mismatch); always also counted as misses.")
	metPuts = telemetry.NewCounter("store_puts_total",
		"Entries written.")
	metBytesRead = telemetry.NewCounter("store_bytes_read_total",
		"Entry bytes read by probes (disk hits; failed reads count what was read; memory hits read none).")
	metBytesWritten = telemetry.NewCounter("store_bytes_written_total",
		"Entry bytes written by puts.")
	metProbeDuration = telemetry.NewHistogram("store_probe_duration_seconds",
		"Wall-clock Get latency, hits and misses alike.",
		telemetry.ProbeBuckets)
	metEntryBytes = telemetry.NewHistogram("store_entry_bytes",
		"Size distribution of entries written.",
		telemetry.SizeBuckets)
)

// observeProbe records one Get latency. A named function rather than
// a closure so that deferring it from the probe hot path does not
// allocate.
//
//vliw:hotpath
func observeProbe(start time.Time) {
	//vliwvet:allow detpure probe latency is telemetry, not simulation state
	metProbeDuration.Observe(time.Since(start).Seconds())
}
