// Package telemetry is the repo's zero-dependency metrics layer: atomic
// counters, gauges and fixed-bucket histograms collected in a
// process-wide registry, exposed three ways — Prometheus text format
// (the server's GET /metrics), a Snapshot value for embedders and
// tests, and structured slog tracing with a per-sweep ID propagated
// through context.
//
// The design constraints, in order:
//
//  1. Hot-path increments must be alloc-free and cheap enough to leave
//     in release builds: every instrument is a fixed set of
//     atomic.Int64 words (histogram sums use a CAS loop over float
//     bits), so Inc/Add/Observe never touch the heap. The simulator's
//     zero-allocs/cycle invariant (DESIGN.md, TestSteadyStateZeroAllocs)
//     holds on instrumented runs.
//  2. No external dependencies: the exposition writer speaks the
//     Prometheus text format directly (it is a stable, line-oriented
//     format), so nothing is imported beyond the standard library.
//  3. Registration is idempotent: instruments are declared as package
//     variables wherever they are used, but constructors return the
//     existing instrument when (name, labels) is already registered,
//     so tests that rebuild servers or engines never double-register.
//
// Metric names follow Prometheus conventions (snake_case, _total
// suffix on counters, unit-suffixed histograms); see the README's
// Observability section for the full table.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// kind is the exposition type of an instrument family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//vliw:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for exposition to make sense).
//
//vliw:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can move both ways.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
//
//vliw:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
//
//vliw:hotpath
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Observations are
// lock-free: each bucket is an atomic counter and the sum is a CAS
// loop over the float's bit pattern, so Observe never allocates and
// scales with contention like any atomic add.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
//
//vliw:hotpath
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DurationBuckets are the default latency bounds in seconds, spanning
// sub-millisecond cache probes to minute-long paper-budget jobs.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// ProbeBuckets are bounds in seconds for very fast operations (disk
// probes, in-memory lookups).
var ProbeBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
}

// SizeBuckets are bounds in bytes for entry/document sizes.
var SizeBuckets = []float64{
	256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
}

// instrument is one registered series: an instrument plus its identity.
type instrument struct {
	name   string
	labels string // rendered label pairs, e.g. `route="submit"`, or ""
	help   string
	kind   kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds instruments and renders them. The zero value is not
// usable; use NewRegistry or the process-wide Default.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*instrument // name + "{" + labels + "}"
	order []*instrument          // registration order, for stable output
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*instrument{}}
}

// defaultRegistry is the process-wide registry behind the package-level
// constructors, GET /metrics and vliwmt.Metrics().
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

func (r *Registry) register(name, labels, help string, k kind, build func() *instrument) *instrument {
	key := name + "{" + labels + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byKey[key]; ok {
		if in.kind != k {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, k, in.kind))
		}
		return in
	}
	in := build()
	in.name, in.labels, in.help, in.kind = name, labels, help, k
	r.byKey[key] = in
	r.order = append(r.order, in)
	return in
}

// Counter registers (or returns the existing) counter with the given
// name and optional rendered label pairs such as `route="submit"`.
func (r *Registry) Counter(name, labels, help string) *Counter {
	in := r.register(name, labels, help, kindCounter, func() *instrument {
		return &instrument{counter: &Counter{}}
	})
	return in.counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	in := r.register(name, labels, help, kindGauge, func() *instrument {
		return &instrument{gauge: &Gauge{}}
	})
	return in.gauge
}

// Histogram registers (or returns the existing) histogram with the
// given ascending upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, labels, help string, bounds []float64) *Histogram {
	in := r.register(name, labels, help, kindHistogram, func() *instrument {
		h := &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
		return &instrument{hist: h}
	})
	return in.hist
}

// NewCounter registers a counter in the process-wide registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.Counter(name, "", help) }

// NewLabeledCounter registers a counter with rendered label pairs
// (e.g. `route="submit"`) in the process-wide registry.
func NewLabeledCounter(name, labels, help string) *Counter {
	return defaultRegistry.Counter(name, labels, help)
}

// NewGauge registers a gauge in the process-wide registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.Gauge(name, "", help) }

// NewHistogram registers a histogram in the process-wide registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return defaultRegistry.Histogram(name, "", help, bounds)
}

// NewLabeledHistogram registers a histogram with rendered label pairs
// in the process-wide registry.
func NewLabeledHistogram(name, labels, help string, bounds []float64) *Histogram {
	return defaultRegistry.Histogram(name, labels, help, bounds)
}

// series renders one sample line name, merging fixed labels with an
// extra pair (used for histogram le="...").
func seriesName(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

// formatBound renders a histogram upper bound the way Prometheus
// clients do: a minimal decimal representation.
func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// WritePrometheus renders every registered instrument in the
// Prometheus text exposition format, grouping series that share a name
// under one HELP/TYPE header. Output order is registration order of
// each family, which is deterministic given deterministic package
// initialisation.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	order := append([]*instrument(nil), r.order...)
	r.mu.Unlock()

	written := map[string]bool{} // family headers already emitted
	// Group: families in first-appearance order, series within a family
	// in registration order.
	byName := map[string][]*instrument{}
	var names []string
	for _, in := range order {
		if _, ok := byName[in.name]; !ok {
			names = append(names, in.name)
		}
		byName[in.name] = append(byName[in.name], in)
	}
	for _, name := range names {
		for _, in := range byName[name] {
			if !written[name] {
				written[name] = true
				if in.help != "" {
					if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, in.help); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, in.kind); err != nil {
					return err
				}
			}
			switch in.kind {
			case kindCounter:
				if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(name, in.labels, ""), in.counter.Value()); err != nil {
					return err
				}
			case kindGauge:
				if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(name, in.labels, ""), in.gauge.Value()); err != nil {
					return err
				}
			case kindHistogram:
				h := in.hist
				var cum int64
				for i, b := range h.bounds {
					cum += h.buckets[i].Load()
					le := fmt.Sprintf("le=%q", formatBound(b))
					if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", in.labels, le), cum); err != nil {
						return err
					}
				}
				cum += h.buckets[len(h.bounds)].Load()
				if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", in.labels, `le="+Inf"`), cum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s %g\n", seriesName(name+"_sum", in.labels, ""), h.Sum()); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", in.labels, ""), h.Count()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Buckets[i] counts
	// observations <= Bounds[i] (non-cumulative), with one final
	// overflow bucket, so len(Buckets) == len(Bounds)+1.
	Bounds  []float64
	Buckets []int64
	Count   int64
	Sum     float64
}

// Snapshot is a point-in-time copy of a registry: every counter and
// gauge value plus every histogram, keyed by the full series name
// (name, or name{labels}). It is what vliwmt.Metrics() returns, and
// what tests assert deltas on — counters are process-lifetime values,
// so assertions compare two snapshots rather than absolute numbers.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	order := append([]*instrument(nil), r.order...)
	r.mu.Unlock()
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, in := range order {
		key := seriesName(in.name, in.labels, "")
		switch in.kind {
		case kindCounter:
			s.Counters[key] = in.counter.Value()
		case kindGauge:
			s.Gauges[key] = in.gauge.Value()
		case kindHistogram:
			h := in.hist
			hs := HistogramSnapshot{
				Bounds:  append([]float64(nil), h.bounds...),
				Buckets: make([]int64, len(h.buckets)),
				Count:   h.Count(),
				Sum:     h.Sum(),
			}
			for i := range h.buckets {
				hs.Buckets[i] = h.buckets[i].Load()
			}
			s.Histograms[key] = hs
		}
	}
	return s
}

// Counter returns the summed value of every counter series with the
// given family name (exact series names include labels; summing makes
// per-route families easy to assert on).
func (s Snapshot) Counter(name string) int64 {
	var total int64
	for key, v := range s.Counters {
		if key == name || (len(key) > len(name) && key[:len(name)] == name && key[len(name)] == '{') {
			total += v
		}
	}
	return total
}

// Gauge returns the summed value of every gauge series with the given
// family name.
func (s Snapshot) Gauge(name string) int64 {
	var total int64
	for key, v := range s.Gauges {
		if key == name || (len(key) > len(name) && key[:len(name)] == name && key[len(name)] == '{') {
			total += v
		}
	}
	return total
}
