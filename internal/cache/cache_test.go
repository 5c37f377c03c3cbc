package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Size: 0, LineSize: 64, Ways: 4},
		{Size: 64 << 10, LineSize: 0, Ways: 4},
		{Size: 64 << 10, LineSize: 64, Ways: 0},
		{Size: 64 << 10, LineSize: 48, Ways: 4},   // line not power of two
		{Size: 100, LineSize: 64, Ways: 4},        // not divisible
		{Size: 3 * 64 * 4, LineSize: 64, Ways: 4}, // sets not power of two
		{Size: 64 << 10, LineSize: 64, Ways: 4, MissPenalty: -1},
		{Size: 64 << 10, LineSize: 64, Ways: 4, MissPenalty: MaxMissPenalty + 1},
		{Size: 2 * MaxLines * 64, LineSize: 64, Ways: 4},  // too many lines
		{Size: 1 << 40, LineSize: 1 << 32, Ways: 1 << 32}, // LineSize*Ways overflows
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
	}
	for _, cfg := range []Config{
		{Size: MaxLines * 64, LineSize: 64, Ways: 4, MissPenalty: MaxMissPenalty},
		{Size: 64 << 10, LineSize: 64, Ways: 1024}, // fully associative
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected %+v, which is within every bound: %v", cfg, err)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted zero config")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	if c.Access(0x1000, false) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Error("second access missed")
	}
	// Same line, different word.
	if !c.Access(0x1004, false) {
		t.Error("same-line access missed")
	}
	// Different line.
	if c.Access(0x1040, false) {
		t.Error("next-line access hit")
	}
	if c.Stats.Accesses != 4 || c.Stats.Misses != 2 {
		t.Errorf("stats = %+v, want 4 accesses / 2 misses", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// Tiny cache: 2 ways, 2 sets, 64B lines => 256 bytes.
	cfg := Config{Size: 256, LineSize: 64, Ways: 2, MissPenalty: 20}
	c := mustNew(t, cfg)
	// Set 0 holds lines with (addr/64)%2 == 0: 0x000, 0x080, 0x100...
	c.Access(0x000, false)
	c.Access(0x080, false)
	c.Access(0x000, false) // touch 0x000: 0x080 becomes LRU
	c.Access(0x100, false) // evicts 0x080
	if !c.Contains(0x000) {
		t.Error("recently used line evicted")
	}
	if c.Contains(0x080) {
		t.Error("LRU line not evicted")
	}
	if !c.Contains(0x100) {
		t.Error("newly filled line absent")
	}
}

func TestWritebackCounting(t *testing.T) {
	cfg := Config{Size: 256, LineSize: 64, Ways: 2, MissPenalty: 20}
	c := mustNew(t, cfg)
	c.Access(0x000, true)  // dirty
	c.Access(0x080, false) // clean
	c.Access(0x100, false) // evicts dirty 0x000 -> writeback
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// Flush writes back the remaining dirty lines (none dirty now).
	c.Flush()
	if c.Contains(0x080) || c.Contains(0x100) {
		t.Error("flush left lines resident")
	}
}

func TestDirtyFlushWriteback(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	c.Access(0x40, true)
	before := c.Stats.Writebacks
	c.Flush()
	if c.Stats.Writebacks != before+1 {
		t.Errorf("flush of dirty line recorded %d writebacks", c.Stats.Writebacks-before)
	}
}

func TestSteadyStateFitFootprint(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	// 32KB footprint in a 64KB cache: after one pass, no further misses.
	const footprint = 32 << 10
	for a := uint64(0); a < footprint; a += 64 {
		c.Access(a, false)
	}
	missesAfterWarmup := c.Stats.Misses
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < footprint; a += 64 {
			c.Access(a, false)
		}
	}
	if c.Stats.Misses != missesAfterWarmup {
		t.Errorf("fitting footprint missed in steady state: %d extra misses",
			c.Stats.Misses-missesAfterWarmup)
	}
}

func TestThrashingFootprint(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	// 1MB streaming footprint >> 64KB cache: every pass misses every line.
	const footprint = 1 << 20
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < footprint; a += 64 {
			c.Access(a, false)
		}
	}
	want := int64(2 * footprint / 64)
	if c.Stats.Misses != want {
		t.Errorf("streaming misses = %d, want %d", c.Stats.Misses, want)
	}
}

func TestAssociativityConflicts(t *testing.T) {
	// Direct-mapped cache: two lines mapping to the same set thrash.
	cfg := Config{Size: 128, LineSize: 64, Ways: 1, MissPenalty: 20}
	c := mustNew(t, cfg)
	for i := 0; i < 10; i++ {
		c.Access(0x000, false)
		c.Access(0x080, false) // same set (2 sets: bit 6 selects)
	}
	if c.Stats.Misses != 20 {
		t.Errorf("conflict misses = %d, want 20", c.Stats.Misses)
	}
	// 2-way cache of the same size holds both.
	cfg.Ways = 2
	cfg.Size = 128
	c2 := mustNew(t, cfg)
	for i := 0; i < 10; i++ {
		c2.Access(0x000, false)
		c2.Access(0x080, false)
	}
	if c2.Stats.Misses != 2 {
		t.Errorf("2-way misses = %d, want 2", c2.Stats.Misses)
	}
}

func TestStatsProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			c.Access(uint64(r.Intn(1<<20))&^3, r.Intn(4) == 0)
		}
		s := c.Stats
		return s.Misses <= s.Accesses && s.Writebacks <= s.Misses+1 && s.Accesses == 2000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle miss rate not 0")
	}
	s = Stats{Accesses: 10, Misses: 5}
	if s.MissRate() != 0.5 {
		t.Errorf("miss rate = %g", s.MissRate())
	}
}

func TestMissPenaltyAccessor(t *testing.T) {
	c := mustNew(t, DefaultConfig())
	if c.MissPenalty() != 20 {
		t.Errorf("MissPenalty = %d", c.MissPenalty())
	}
	if c.Config().Size != 64<<10 {
		t.Errorf("Config().Size = %d", c.Config().Size)
	}
}

// refCache is the cache model as it stood before the tag store went
// flat and gained the MRU rule: per-set slices of line records and a
// clock that ticks on every access. It is the oracle for
// TestCacheMatchesReference, because every simulator loop, refsim
// included, shares Cache and so cannot catch a bug in it.
type refCache struct {
	sets      [][]refLine
	setMask   uint64
	lineShift uint
	clock     uint64
	Stats     Stats
}

type refLine struct {
	tag   uint64
	used  uint64 // LRU timestamp
	valid bool
	dirty bool
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.Size / (cfg.LineSize * cfg.Ways)
	sets := make([][]refLine, nsets)
	for i := range sets {
		sets[i] = make([]refLine, cfg.Ways)
	}
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	return &refCache{sets: sets, setMask: uint64(nsets - 1), lineShift: shift}
}

func (c *refCache) Access(addr uint64, write bool) bool {
	c.clock++
	c.Stats.Accesses++
	lineAddr := addr >> c.lineShift
	set := c.sets[lineAddr&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].used = c.clock
			if write {
				set[i].dirty = true
			}
			return true
		}
	}
	c.Stats.Misses++
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].used < set[victim].used {
				victim = i
			}
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.Stats.Writebacks++
	}
	set[victim] = refLine{tag: lineAddr, used: c.clock, valid: true, dirty: write}
	return false
}

func (c *refCache) Flush() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			if c.sets[si][wi].valid && c.sets[si][wi].dirty {
				c.Stats.Writebacks++
			}
			c.sets[si][wi] = refLine{}
		}
	}
}

// TestCacheMatchesReference drives the flat MRU cache and refCache with
// the same seeded read/write streams and requires the same answer on
// every access and the same final Stats. The streams mix uniform
// addresses with runs on one line (the MRU short-circuit), ping-pong
// between lines of one set (LRU order under skipped ticks) and a Flush
// partway through (the remembered line must be forgotten).
func TestCacheMatchesReference(t *testing.T) {
	geoms := []Config{
		{Size: 1 << 10, LineSize: 64, Ways: 1, MissPenalty: 20},
		{Size: 2 << 10, LineSize: 64, Ways: 2, MissPenalty: 200},
		DefaultConfig(),
	}
	for _, cfg := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			c := mustNew(t, cfg)
			ref := newRefCache(cfg)
			r := rand.New(rand.NewSource(seed))
			nsets := uint64(cfg.Size / (cfg.LineSize * cfg.Ways))
			line := uint64(cfg.LineSize)
			// A footprint of a few cache sizes keeps both hits and
			// evictions common.
			span := uint64(4 * cfg.Size)
			const n = 20_000
			for i := 0; i < n; i++ {
				if i == n/2 {
					c.Flush()
					ref.Flush()
				}
				addr := uint64(r.Int63n(int64(span)))
				var burst int
				switch r.Intn(4) {
				case 0: // a run on one line, varying the word
					burst = 1 + r.Intn(6)
				case 1: // alternate between two lines of one set
					other := addr + nsets*line*uint64(1+r.Intn(cfg.Ways+1))
					for k := 0; k < 2+r.Intn(6); k++ {
						a := addr
						if k%2 == 1 {
							a = other
						}
						w := r.Intn(3) == 0
						if got, want := c.Access(a, w), ref.Access(a, w); got != want {
							t.Fatalf("%+v seed %d access %d (%#x, write=%v): hit=%v, reference %v", cfg, seed, i, a, w, got, want)
						}
					}
					continue
				default:
					burst = 1
				}
				for k := 0; k < burst; k++ {
					a := addr&^(line-1) + uint64(r.Intn(cfg.LineSize))
					w := r.Intn(3) == 0
					if got, want := c.Access(a, w), ref.Access(a, w); got != want {
						t.Fatalf("%+v seed %d access %d (%#x, write=%v): hit=%v, reference %v", cfg, seed, i, a, w, got, want)
					}
				}
			}
			c.Flush()
			ref.Flush()
			if c.Stats != ref.Stats {
				t.Errorf("%+v seed %d: stats %+v, reference %+v", cfg, seed, c.Stats, ref.Stats)
			}
			if c.Stats.Writebacks == 0 || c.Stats.Misses == 0 || c.Stats.Misses == c.Stats.Accesses {
				t.Errorf("%+v seed %d: stream exercised too little: %+v", cfg, seed, c.Stats)
			}
		}
	}
}

// TestPinBoundary pins the per-set classification at its boundary: on
// a 2-set, 2-way cache, set 0 receives exactly Ways lines and is pinned
// (each line with its own index), and set 1 receives Ways+1 lines and
// is left to Access. Pin also refuses a cache that has seen an access.
func TestPinBoundary(t *testing.T) {
	cfg := Config{Size: 2 * 2 * 64, LineSize: 64, Ways: 2, MissPenalty: 20}
	c := mustNew(t, cfg)
	// Line l lies in set l&1: lines 0 and 2 fill set 0, lines 1, 3 and
	// 5 overflow set 1. Repeats and offsets within a line count once.
	set0 := []uint64{0, 2*64 + 8, 63, 2*64 + 63}
	set1 := []uint64{64, 3*64 + 1, 5 * 64, 64 + 32}
	if err := c.Pin(append(append([]uint64{}, set0...), set1...)); err != nil {
		t.Fatal(err)
	}
	seen := map[int32]uint64{}
	for _, a := range set0 {
		i := c.PinnedLine(a)
		if i < 0 {
			t.Fatalf("address %#x in a set of exactly Ways lines is not pinned", a)
		}
		if l, ok := seen[i]; ok && l != a>>6 {
			t.Fatalf("lines %d and %d share pinned index %d", l, a>>6, i)
		}
		seen[i] = a >> 6
	}
	if len(seen) != 2 {
		t.Fatalf("set 0's two lines got %d pinned indices, want 2", len(seen))
	}
	for _, a := range set1 {
		if i := c.PinnedLine(a); i != -1 {
			t.Fatalf("address %#x in a set of Ways+1 lines is pinned at %d; it can be evicted", a, i)
		}
	}
	if c.PinnedLine(4*64) != -1 {
		t.Fatal("a line outside the pinned stream reports a pinned index")
	}

	warm := mustNew(t, cfg)
	warm.Access(0, false)
	if err := warm.Pin([]uint64{0}); err == nil {
		t.Fatal("Pin accepted a cache that has seen an access")
	}
}

// TestPinnedMatchesAccess drives a pinned cache (Touch for its pinned
// lines, Access for the rest) and a plain one (Access only) with the
// same seeded read stream over a fixed pool of lines, and requires the
// same answer on every access, the same Contains for every pool line
// and the same Stats, across a Flush. The pools give some sets at most
// Ways lines and others more, so both paths interleave, and the MRU
// line of the Access path survives Touches in between.
func TestPinnedMatchesAccess(t *testing.T) {
	geoms := []Config{
		{Size: 1 << 10, LineSize: 64, Ways: 1, MissPenalty: 20},
		{Size: 2 << 10, LineSize: 64, Ways: 2, MissPenalty: 200},
		{Size: 4 << 10, LineSize: 64, Ways: 4, MissPenalty: 20},
		{Size: 4 * 64, LineSize: 64, Ways: 4, MissPenalty: 20}, // one set
	}
	for _, cfg := range geoms {
		var touches, accesses int64
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			nsets := cfg.Size / (cfg.LineSize * cfg.Ways)
			// Each set draws 0..2*Ways distinct lines, so sets fit and
			// overflow in about equal numbers.
			var pool []uint64
			for s := 0; s < nsets; s++ {
				for _, k := range r.Perm(4 * cfg.Ways)[:r.Intn(2*cfg.Ways+1)] {
					pool = append(pool, uint64((k*nsets+s)*cfg.LineSize))
				}
			}
			if len(pool) == 0 {
				continue
			}
			pinned, plain := mustNew(t, cfg), mustNew(t, cfg)
			if err := pinned.Pin(append([]uint64{}, pool...)); err != nil {
				t.Fatal(err)
			}
			var touched int64
			const n = 5_000
			for i := 0; i < n; i++ {
				if i == n/2 {
					pinned.Flush()
					plain.Flush()
				}
				a := pool[r.Intn(len(pool))] + uint64(r.Intn(cfg.LineSize))
				// Runs on one line exercise the MRU short-circuit.
				for k := 1 + r.Intn(3); k > 0; k-- {
					var got bool
					if l := pinned.PinnedLine(a); l >= 0 {
						got = pinned.Touch(l)
						touched++
					} else {
						got = pinned.Access(a, false)
					}
					if want := plain.Access(a, false); got != want {
						t.Fatalf("%+v seed %d access %d (%#x): hit=%v, Access-only %v", cfg, seed, i, a, got, want)
					}
				}
			}
			for _, a := range pool {
				if got, want := pinned.Contains(a), plain.Contains(a); got != want {
					t.Fatalf("%+v seed %d: Contains(%#x) = %v, Access-only %v", cfg, seed, a, got, want)
				}
			}
			if pinned.Stats != plain.Stats {
				t.Errorf("%+v seed %d: stats %+v, Access-only %+v", cfg, seed, pinned.Stats, plain.Stats)
			}
			if pinned.Touches() != touched {
				t.Errorf("%+v seed %d: Touches() = %d, want %d", cfg, seed, pinned.Touches(), touched)
			}
			touches += touched
			accesses += pinned.Stats.Accesses
		}
		if touches == 0 || touches == accesses {
			t.Errorf("%+v: %d of %d accesses touched pinned lines; both paths must run", cfg, touches, accesses)
		}
	}
}
