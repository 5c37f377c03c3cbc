package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"

	"vliwmt/internal/isa"
	"vliwmt/internal/program"
	"vliwmt/internal/sim"
	"vliwmt/internal/workload"
)

// compileKey identifies one compiled program: both Benchmark names and
// isa.Machine are flat comparable values, so the pair keys a map directly.
type compileKey struct {
	bench   string
	machine isa.Machine
}

// compileEntry memoizes one compilation. The sync.Once serialises the
// compile itself while letting unrelated keys compile concurrently; ok
// is set once the compile has finished and succeeded.
type compileEntry struct {
	once sync.Once
	prog *program.Program
	err  error
	ok   atomic.Bool
}

// CompileCache memoizes kernel compilation per (benchmark, machine), so a
// sweep compiles each kernel once no matter how many jobs reference it.
// Compiled programs are read-only to the simulator and safe to share
// between concurrent jobs. The zero value is not usable; call NewCompileCache.
type CompileCache struct {
	mu      sync.Mutex
	entries map[compileKey]*compileEntry

	compiles atomic.Int64
	hits     atomic.Int64
}

// NewCompileCache returns an empty cache.
func NewCompileCache() *CompileCache {
	return &CompileCache{entries: map[compileKey]*compileEntry{}}
}

// shared is the process-wide cache behind SharedCache.
var shared = NewCompileCache()

// SharedCache returns a process-wide compile cache. Sharing is
// semantically transparent — entries are keyed by (benchmark, machine)
// and compiled programs are immutable — so callers running many sweeps
// (the experiments drivers, the public Sweep API) attach it to avoid
// recompiling kernels on every sweep.
func SharedCache() *CompileCache { return shared }

// Get returns the compiled program for the named benchmark on machine m,
// compiling it on first use. Concurrent callers of the same key block on
// one compilation; callers of different keys proceed in parallel.
func (c *CompileCache) Get(bench string, m isa.Machine) (*program.Program, error) {
	key := compileKey{bench: bench, machine: m}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &compileEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		metCompileHits.Inc()
	} else {
		metCompileMisses.Inc()
	}
	e.once.Do(func() {
		c.compiles.Add(1)
		b, err := workload.ByName(bench)
		if err != nil {
			e.err = err
			return
		}
		e.prog, e.err = b.Compile(m)
		e.ok.Store(e.err == nil)
	})
	return e.prog, e.err
}

// compiled reports whether the cache holds a finished, successful
// compile of bench for machine m, which vouches that bench names a
// benchmark. An entry still compiling or one that failed vouches for
// nothing. It is a peek: it counts no lookup and compiles nothing.
func (c *CompileCache) compiled(bench string, m isa.Machine) bool {
	c.mu.Lock()
	e := c.entries[compileKey{bench: bench, machine: m}]
	c.mu.Unlock()
	return e != nil && e.ok.Load()
}

// Tasks compiles the named benchmarks for machine m through the cache
// and returns them, in order, as the simulator's software threads. It
// is the one path from a benchmark list to []sim.Task.
func (c *CompileCache) Tasks(benches []string, m isa.Machine) ([]sim.Task, error) {
	tasks := make([]sim.Task, len(benches))
	for i, name := range benches {
		p, err := c.Get(name, m)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", name, err)
		}
		tasks[i] = sim.Task{Name: name, Prog: p}
	}
	return tasks, nil
}

// Stats reports how many compilations the cache performed and how many
// lookups it served from memory.
func (c *CompileCache) Stats() (compiles, hits int64) {
	return c.compiles.Load(), c.hits.Load()
}
