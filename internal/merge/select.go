package merge

import (
	"math/bits"

	"vliwmt/internal/isa"
)

// Selection is the outcome of one merge-stage cycle: which thread ports
// issue and the occupancy of the merged execution packet.
type Selection struct {
	Mask uint32
	Occ  isa.Occupancy
}

// Empty reports whether no port was selected.
func (s Selection) Empty() bool { return s.Mask == 0 }

// Count returns the number of selected ports.
func (s Selection) Count() int { return bits.OnesCount32(s.Mask) }

// Has reports whether port p was selected.
func (s Selection) Has(p int) bool { return s.Mask&(1<<uint(p)) != 0 }

// Selector is the reference merge-stage policy: given the candidate
// instruction occupancy at each thread port, it picks the set of ports
// that issue this cycle. Its implementations — Tree, IMT and BMT — are
// the oracle family refsim and the differential tests run; the
// simulator selects with the compiled evaluator (Scheme.Selector,
// Compiled.SelectPacked), which must agree with them bit for bit. cands
// is a value slice indexed by port; entry p is meaningful only when bit
// p of valid is set (a clear bit means the thread is stalled or absent).
//
// Implementations may keep state across cycles (block multithreading),
// so a Selector instance must not be shared between simulators. All
// implementations must be pure on empty input: Select with valid == 0
// returns the empty Selection and mutates nothing — the simulator's
// stall fast-forward relies on this to skip all-stalled cycles without
// consulting the selector (see DESIGN.md).
type Selector interface {
	Name() string
	Ports() int
	Select(m *isa.Machine, cands []isa.Occupancy, valid uint32) Selection
}

// Select implements the greedy priority-ordered merging of the scheme by
// walking the tree recursively. It is the reference implementation: the
// refsim oracle and the differential tests run it against the compiled
// evaluator (Compile), which must select identically. The simulator
// gets a *Compiled from Scheme.Selector instead.
func (t *Tree) Select(m *isa.Machine, cands []isa.Occupancy, valid uint32) Selection {
	return t.root.sel(m, cands, valid)
}

func compatible(k Kind, a, b isa.Occupancy, m *isa.Machine) bool {
	if k == CSMT {
		return a.CompatCSMT(b)
	}
	return a.CompatSMT(b, m)
}

func (n *Node) sel(m *isa.Machine, cands []isa.Occupancy, valid uint32) Selection {
	var acc Selection
	for _, in := range n.Inputs {
		var s Selection
		if in.Node != nil {
			s = in.Node.sel(m, cands, valid)
		} else if valid&(1<<uint(in.Port)) != 0 {
			s = Selection{Mask: 1 << uint(in.Port), Occ: cands[in.Port]}
		}
		if s.Empty() {
			continue
		}
		if acc.Empty() {
			acc = s
			continue
		}
		if compatible(n.Kind, acc.Occ, s.Occ, m) {
			acc.Mask |= s.Mask
			acc.Occ = acc.Occ.Union(s.Occ)
		}
		// Incompatible inputs are dropped whole: a merged sub-packet
		// cannot be split back into its threads (VLIW semantics).
	}
	return acc
}

// IMT is the interleaved multithreading baseline: exactly one thread issues
// per cycle, the highest-priority runnable one. Combined with the
// simulator's round-robin priority rotation this interleaves threads
// cycle by cycle, as in barrel processors.
type IMT struct {
	NumPorts int
}

// Name implements Selector.
func (s *IMT) Name() string { return "IMT" }

// Ports implements Selector.
func (s *IMT) Ports() int { return s.NumPorts }

// Select implements Selector.
func (s *IMT) Select(m *isa.Machine, cands []isa.Occupancy, valid uint32) Selection {
	if valid == 0 {
		return Selection{}
	}
	p := uint(bits.TrailingZeros32(valid))
	return Selection{Mask: 1 << p, Occ: cands[p]}
}

// BMT is the block multithreading baseline: the current thread keeps
// issuing until it blocks (stall or end of stream), then the next runnable
// thread takes over.
type BMT struct {
	NumPorts int
	current  int
}

// Name implements Selector.
func (s *BMT) Name() string { return "BMT" }

// Ports implements Selector.
func (s *BMT) Ports() int { return s.NumPorts }

// Select implements Selector.
func (s *BMT) Select(m *isa.Machine, cands []isa.Occupancy, valid uint32) Selection {
	if s.current < len(cands) && valid&(1<<uint(s.current)) != 0 {
		return Selection{Mask: 1 << uint(s.current), Occ: cands[s.current]}
	}
	for i := 1; i <= len(cands); i++ {
		p := (s.current + i) % len(cands)
		if valid&(1<<uint(p)) != 0 {
			s.current = p
			return Selection{Mask: 1 << uint(p), Occ: cands[p]}
		}
	}
	return Selection{}
}
