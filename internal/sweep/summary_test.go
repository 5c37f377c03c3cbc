package sweep

import (
	"context"
	"errors"
	"testing"
	"time"
)

// ms is a duration of n milliseconds.
func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// timedResults builds one Result per elapsed time, none cached, none failed.
func timedResults(elapsed ...time.Duration) []Result {
	rs := make([]Result, len(elapsed))
	for i, d := range elapsed {
		rs[i] = Result{Index: i, Elapsed: d}
	}
	return rs
}

// TestSummarize rolls up the result slices a sweep can end with and
// checks every field: failed and cancellation-skipped jobs count as
// errors and stay out of the percentiles and the store hits, cached
// jobs count as hits with their replayed times, and throughput is
// every job over the wall time.
func TestSummarize(t *testing.T) {
	cached := timedResults(ms(40), ms(10), ms(30), ms(20))
	for i := range cached {
		cached[i].Cached = true
	}
	failing := timedResults(ms(10), ms(20), ms(30), ms(40))
	failing[3].Err = errors.New("kernel does not compile")
	failing[3].Cached = true // an error outranks the flag
	canceled := timedResults(ms(10), ms(20), 0, 0)
	canceled[2].Err, canceled[3].Err = context.Canceled, context.Canceled

	for _, tc := range []struct {
		name    string
		results []Result
		wall    time.Duration
		want    Summary
		ratio   float64
	}{
		{"cold", timedResults(ms(30), ms(10), ms(40), ms(20)), 2 * time.Second,
			Summary{Jobs: 4, Wall: 2 * time.Second, P50: ms(20), P99: ms(40), JobsPerSec: 2}, 0},
		{"all cached", cached, time.Second,
			Summary{Jobs: 4, CacheHits: 4, Wall: time.Second, P50: ms(20), P99: ms(40), JobsPerSec: 4}, 1},
		{"one failing", failing, 500 * time.Millisecond,
			Summary{Jobs: 4, Errors: 1, Wall: 500 * time.Millisecond, P50: ms(20), P99: ms(30), JobsPerSec: 8}, 0},
		{"cancellation skipped", canceled, time.Second,
			Summary{Jobs: 4, Errors: 2, Wall: time.Second, P50: ms(10), P99: ms(20), JobsPerSec: 4}, 0},
		{"unknown wall", timedResults(ms(10)), 0,
			Summary{Jobs: 1, P50: ms(10), P99: ms(10)}, 0},
		{"empty", nil, time.Second, Summary{Wall: time.Second}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := Summarize(tc.results, tc.wall)
			if got != tc.want {
				t.Errorf("Summarize = %+v, want %+v", got, tc.want)
			}
			if r := got.CacheHitRatio(); r != tc.ratio {
				t.Errorf("CacheHitRatio = %v, want %v", r, tc.ratio)
			}
		})
	}
}

// TestSummarizeNearestRank pins the percentile rule: the nearest-rank
// element of the sorted successful times, p·n rounded half up, at
// least the first.
func TestSummarizeNearestRank(t *testing.T) {
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = ms(100 - i) // descending: Summarize sorts
	}
	for _, tc := range []struct {
		name     string
		elapsed  []time.Duration
		p50, p99 time.Duration
	}{
		{"one", []time.Duration{ms(7)}, ms(7), ms(7)},
		{"two", []time.Duration{ms(9), ms(3)}, ms(3), ms(9)},
		{"three", []time.Duration{ms(3), ms(1), ms(2)}, ms(2), ms(3)},
		{"1..100", hundred, ms(50), ms(99)},
	} {
		s := Summarize(timedResults(tc.elapsed...), 0)
		if s.P50 != tc.p50 || s.P99 != tc.p99 {
			t.Errorf("%s: p50=%v p99=%v, want p50=%v p99=%v", tc.name, s.P50, s.P99, tc.p50, tc.p99)
		}
	}
}

// TestSummaryString pins the one line vliwsweep -stats prints.
func TestSummaryString(t *testing.T) {
	rs := timedResults(ms(5), ms(5), ms(5), ms(5))
	rs[0].Cached, rs[1].Cached = true, true
	rs[3].Err = errors.New("failed")
	s := Summarize(rs, 1600*time.Millisecond)
	const want = "sweep: 4 jobs in 1.60s (2.5 jobs/s), 2 store hits (50.0%), 1 errors, job p50=5ms p99=5ms"
	if got := s.String(); got != want {
		t.Errorf("String() = %q\nwant       %q", got, want)
	}
	s = Summary{Jobs: 144, CacheHits: 72, Wall: 1520 * time.Millisecond, JobsPerSec: 94.73,
		P50: 9_812 * time.Microsecond, P99: 31_249 * time.Microsecond}
	const doc = "sweep: 144 jobs in 1.52s (94.7 jobs/s), 72 store hits (50.0%), 0 errors, job p50=9.8ms p99=31.2ms"
	if got := s.String(); got != doc {
		t.Errorf("String() = %q\nwant       %q", got, doc)
	}
	const empty = "sweep: 0 jobs in 0.00s (0.0 jobs/s), 0 store hits (0.0%), 0 errors, job p50=0s p99=0s"
	if got := (Summary{}).String(); got != empty {
		t.Errorf("empty String() = %q\nwant             %q", got, empty)
	}
}
