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
//
// Pinned lines: when every address a cache will ever see is known in
// advance (the simulator's fetch addresses are the planned
// instructions'), a set holding at most Ways of the distinct lines can
// never evict. Pin finds those sets before the first access, and Touch
// then serves their lines with an access count and a per-line resident
// bit: the first touch books the miss that fills the line, exactly as
// Access would on the cold set, and every later touch hits. This is
// exact, and the MRU rule keeps holding: a set is wholly pinned or
// wholly served by Access; no pinned set ever chooses a victim, so its
// lines need no LRU stamps and skipping their clock ticks keeps the
// stamp order of every other set; and Touch leaves the remembered line,
// which is still the newest of its own set, alone.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Config describes one cache. Its json tags are the wire and store form
// of a cache configuration.
type Config struct {
	// Size is the total capacity in bytes.
	Size int `json:"size,omitempty"`
	// LineSize is the line (block) size in bytes.
	LineSize int `json:"line_size,omitempty"`
	// Ways is the set associativity.
	Ways int `json:"ways,omitempty"`
	// MissPenalty is the thread stall in cycles on a miss.
	MissPenalty int `json:"miss_penalty,omitempty"`
}

// MaxMissPenalty bounds the miss stall, which the cycle loop adds to a
// cycle once per memory operation (at most 64 per instruction); 2^20
// keeps that sum far from overflow and far beyond any memory (the
// paper's penalty is 20).
const MaxMissPenalty = 1 << 20

// MaxLines bounds the line count, since New allocates 17 bytes per line
// up front: 17 MB at the bound, a 64 MB cache of 64-byte lines.
const MaxLines = 1 << 20

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
	case c.Size/c.LineSize > MaxLines:
		return fmt.Errorf("cache: %d lines exceed MaxLines (%d)", c.Size/c.LineSize, MaxLines)
	// Ways beyond the line count cannot divide the size; checking it
	// first keeps LineSize*Ways from overflowing.
	case c.Ways > c.Size/c.LineSize || c.Size%(c.LineSize*c.Ways) != 0:
		return fmt.Errorf("cache: size %d is not divisible by %d ways of %d-byte lines", c.Size, c.Ways, c.LineSize)
	case c.MissPenalty < 0 || c.MissPenalty > MaxMissPenalty:
		return fmt.Errorf("cache: miss penalty must be in [0,%d], got %d", MaxMissPenalty, c.MissPenalty)
	}
	sets := c.Size / (c.LineSize * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// Stats accumulates access counters.
type Stats struct {
	Accesses   int64 `json:"accesses,omitempty"`
	Misses     int64 `json:"misses,omitempty"`
	Writebacks int64 `json:"writebacks,omitempty"`
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
	// pinKeys holds the pinKey of every pinned line in ascending order
	// (a pinned line's index is its position), setBits the set count's
	// log2, resident whether each pinned line has been touched, and
	// touches the Touch calls.
	pinKeys  []uint64
	setBits  int
	resident []bool
	touches  int64
	Stats    Stats
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
		setBits:   bits.TrailingZeros(uint(nsets)),
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
	if i := c.PinnedLine(addr); i >= 0 {
		return c.resident[i]
	}
	tag := addr>>c.lineShift + 1
	base := int((tag-1)&c.setMask) * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// pinKey is addr's line number rotated so that its set index leads:
// the keys of one set's lines sort together, and key>>(64-setBits) is
// the set.
func (c *Cache) pinKey(addr uint64) uint64 {
	return bits.RotateLeft64(addr>>c.lineShift, -c.setBits)
}

// Pin prepares a cold cache for a read-only address stream known in
// advance: addrs must hold every address the cache will see, in any
// order and with repeats. It pins the lines of every set that holds at
// most Ways of the distinct lines, since such a set can never evict
// (package doc). From then on each access to a pinned line must go
// through Touch, with the index PinnedLine gives, and every other access
// through Access. Pin overwrites addrs and keeps its backing array. It
// fails on a cache that has seen an access.
func (c *Cache) Pin(addrs []uint64) error {
	if c.Stats != (Stats{}) {
		return errors.New("cache: Pin on a cache that has seen accesses")
	}
	for i, a := range addrs {
		addrs[i] = c.pinKey(a)
	}
	slices.Sort(addrs)
	keys := slices.Compact(addrs)
	n := 0
	for i := 0; i < len(keys); {
		set := keys[i] >> (64 - c.setBits)
		j := i + 1
		for j < len(keys) && keys[j]>>(64-c.setBits) == set {
			j++
		}
		if j-i <= c.ways {
			n += copy(keys[n:], keys[i:j])
		}
		i = j
	}
	c.pinKeys = keys[:n]
	c.resident = make([]bool, n)
	return nil
}

// PinnedLine returns the index Touch takes for addr's line, or -1 when
// Pin did not pin it and the access goes through Access.
func (c *Cache) PinnedLine(addr uint64) int32 {
	i, ok := slices.BinarySearch(c.pinKeys, c.pinKey(addr))
	if !ok {
		return -1
	}
	return int32(i)
}

// Touch reads pinned line i (see PinnedLine) and reports whether it
// hit. It counts the access, and on the line's first touch the miss
// that fills it, exactly as Access would.
//
//vliw:hotpath
func (c *Cache) Touch(i int32) bool {
	c.Stats.Accesses++
	c.touches++
	if c.resident[i] {
		return true
	}
	c.resident[i] = true
	c.Stats.Misses++
	return false
}

// Touches returns the number of Touch calls, the accesses served from
// pinned lines.
func (c *Cache) Touches() int64 { return c.touches }

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
	clear(c.resident)
	c.mruTag = 0
}
