package sweep

import (
	"fmt"
	"sort"
	"time"
)

// Summary is the lifecycle roll-up of one finished sweep: job and
// error counts, store cache traffic, the per-job latency distribution
// and aggregate throughput. It is computed from the result slice after
// the fact (Summarize), so it works identically for in-process sweeps
// and results fetched over the wire.
type Summary struct {
	// Jobs is the number of submitted jobs; Errors of them failed (or
	// were skipped by cancellation) and CacheHits were served from the
	// persistent result store.
	Jobs, Errors, CacheHits int
	// Wall is the sweep's end-to-end wall-clock time.
	Wall time.Duration
	// P50 and P99 are percentiles of the per-job elapsed times (for
	// cached jobs that is the replayed original simulation time).
	P50, P99 time.Duration
	// JobsPerSec is Jobs divided by Wall — the "sims/s" throughput
	// headline (cache hits count: a served job is a completed job).
	JobsPerSec float64
}

// CacheHitRatio returns CacheHits / Jobs, or 0 for an empty sweep.
func (s Summary) CacheHitRatio() float64 {
	if s.Jobs == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Jobs)
}

// String renders the one-line lifecycle summary vliwsweep -stats
// prints, e.g.
//
//	sweep: 144 jobs in 1.52s (94.7 jobs/s), 72 store hits (50.0%), 0 errors, job p50=9.8ms p99=31.2ms
func (s Summary) String() string {
	return fmt.Sprintf("sweep: %d jobs in %.2fs (%.1f jobs/s), %d store hits (%.1f%%), %d errors, job p50=%s p99=%s",
		s.Jobs, s.Wall.Seconds(), s.JobsPerSec, s.CacheHits, 100*s.CacheHitRatio(),
		s.Errors, s.P50.Round(100*time.Microsecond), s.P99.Round(100*time.Microsecond))
}

// percentile returns the p-th percentile (0..1) of sorted durations
// using nearest-rank; empty input yields 0.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

// Summarize rolls a finished sweep's results up into a Summary. wall
// is the sweep's end-to-end wall-clock time (pass 0 when unknown; the
// throughput field is then left 0 too).
func Summarize(results []Result, wall time.Duration) Summary {
	s := Summary{Jobs: len(results), Wall: wall}
	elapsed := make([]time.Duration, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			s.Errors++
			continue
		}
		if r.Cached {
			s.CacheHits++
		}
		elapsed = append(elapsed, r.Elapsed)
	}
	sort.Slice(elapsed, func(i, j int) bool { return elapsed[i] < elapsed[j] })
	s.P50 = percentile(elapsed, 0.50)
	s.P99 = percentile(elapsed, 0.99)
	if wall > 0 {
		s.JobsPerSec = float64(s.Jobs) / wall.Seconds()
	}
	return s
}
