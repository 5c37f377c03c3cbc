// Package cache models the set-associative instruction and data caches of
// the simulated processor. The paper's configuration is 64KB, 4-way
// set-associative with a flat 20-cycle miss penalty (400MHz core, 50ns
// worst-case DRAM critical-word latency); hits never stall.
//
// MRU rule: a Cache remembers the line and way of its previous access. A
// repeat access to that line is a hit that only counts the access (and
// marks the line dirty on a write); it skips the LRU clock tick and the
// stamp update. This is exact. The previous line always holds the newest
// stamp in its set, LRU only compares stamps within one set, and skipping
// a tick keeps every stamp in the same order, so every later victim
// choice is the one a ticking cache would make. Flush forgets the
// remembered line.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	// Size is the total capacity in bytes.
	Size int
	// LineSize is the line (block) size in bytes.
	LineSize int
	// Ways is the set associativity.
	Ways int
	// MissPenalty is the thread stall in cycles on a miss.
	MissPenalty int
}

// DefaultConfig returns the paper's cache configuration: 64KB, 4-way,
// 64-byte lines, 20-cycle miss penalty.
func DefaultConfig() Config {
	return Config{Size: 64 << 10, LineSize: 64, Ways: 4, MissPenalty: 20}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Size <= 0 || c.LineSize <= 0 || c.Ways <= 0:
		return fmt.Errorf("cache: size, line size and ways must be positive: %+v", c)
	case c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d is not a power of two", c.LineSize)
	case c.Size%(c.LineSize*c.Ways) != 0:
		return fmt.Errorf("cache: size %d is not divisible by ways*line (%d)", c.Size, c.LineSize*c.Ways)
	case c.MissPenalty < 0:
		return fmt.Errorf("cache: negative miss penalty")
	}
	sets := c.Size / (c.LineSize * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// Stats accumulates access counters.
type Stats struct {
	Accesses   int64
	Misses     int64
	Writebacks int64
}

// MissRate returns Misses/Accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a single write-back, write-allocate, LRU set-associative cache.
// It is a timing model only: no data is stored.
//
// The tag store is flat: way w of set s is entry s*Ways+w of tags (the
// line address plus one, so zero marks an invalid way), used (the LRU
// stamp) and dirty. Line address 2^64-1, which only 1-byte lines at the
// very top of the address space can produce, has no encoding.
type Cache struct {
	cfg       Config
	tags      []uint64
	used      []uint64
	dirty     []bool
	ways      int
	setMask   uint64
	lineShift uint
	clock     uint64
	// mruTag is the encoded tag of the previous access (0: none) and
	// mruWay its flat way index: the package doc's MRU rule.
	mruTag uint64
	mruWay int
	Stats  Stats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Ways)
	n := nsets * cfg.Ways
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	return &Cache{
		cfg:       cfg,
		tags:      make([]uint64, n),
		used:      make([]uint64, n),
		dirty:     make([]bool, n),
		ways:      cfg.Ways,
		setMask:   uint64(nsets - 1),
		lineShift: shift,
	}, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Access performs one read (write=false) or write (write=true) and reports
// whether it hit. Misses allocate the line, evicting the LRU way; evicting
// a dirty line counts a writeback.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.Stats.Accesses++
	tag := addr>>c.lineShift + 1
	if tag == c.mruTag {
		if write {
			c.dirty[c.mruWay] = true
		}
		return true
	}
	c.clock++
	base := int((tag-1)&c.setMask) * c.ways
	set := c.tags[base : base+c.ways]
	for i, t := range set {
		if t == tag {
			w := base + i
			c.used[w] = c.clock
			if write {
				c.dirty[w] = true
			}
			c.mruTag, c.mruWay = tag, w
			return true
		}
	}
	c.Stats.Misses++
	w := -1
	for i, t := range set {
		if t == 0 {
			w = base + i
			break
		}
	}
	if w < 0 {
		w = base
		for i := base + 1; i < base+c.ways; i++ {
			if c.used[i] < c.used[w] {
				w = i
			}
		}
		if c.dirty[w] {
			c.Stats.Writebacks++
		}
	}
	c.tags[w], c.used[w], c.dirty[w] = tag, c.clock, write
	c.mruTag, c.mruWay = tag, w
	return false
}

// Contains reports whether addr's line is resident (no state change).
func (c *Cache) Contains(addr uint64) bool {
	tag := addr>>c.lineShift + 1
	base := int((tag-1)&c.setMask) * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// MissPenalty returns the configured miss stall in cycles.
func (c *Cache) MissPenalty() int { return c.cfg.MissPenalty }

// Flush invalidates all lines (keeping statistics), counting writebacks
// for dirty lines.
func (c *Cache) Flush() {
	for w, t := range c.tags {
		if t != 0 && c.dirty[w] {
			c.Stats.Writebacks++
		}
	}
	clear(c.tags)
	clear(c.used)
	clear(c.dirty)
	c.mruTag = 0
}
