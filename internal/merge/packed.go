package merge

import (
	"math/bits"

	"vliwmt/internal/isa"
)

// Packed selection: the simulator's one fast merge evaluator.
//
// A compiled evaluator consumes an occupancy only through three
// questions — which clusters does it use (CSMT disjointness), do the
// per-cluster slot counts fit when two packets are summed (SMT
// capacity), and does the merged packet retire any operations. All
// three are answerable from a byte-packed form of the occupancy: one
// uint64 per slot class holding the eight per-cluster counts as bytes,
// plus the cluster bitmask and the operation total. On that form a
// merge attempt is a handful of 64-bit adds and masks — no per-cluster
// loop, no 33-byte Occupancy copies — and the whole candidate gather
// reduces to dictionary IDs.
//
// The SWAR capacity test works because every quantity is small: packed
// counts are capped at packMax (63) and machine limits likewise, so
// byte sums never carry into a neighbouring byte, and "count_a +
// count_b > limit" becomes "byte + (127 - limit) has bit 7 set".
// Clusters the reference walk never checks (index >= Machine.Clusters,
// or clusters not used by both packets) are masked out of the overflow
// word, which reproduces Occupancy.CompatSMT's skip rules exactly. Every
// valid machine and every occupancy that fits one alone lies inside the
// headroom (TestPackingTotalForValidInput). The exhaustive proof in
// internal/logic, the differential tests in this package and the
// simulator's sim-vs-refsim suite enforce bit-identity with the
// reference Selectors.

const (
	// packMax bounds every packed per-cluster count and machine limit;
	// beyond it the byte arithmetic could carry. Valid machines are
	// nowhere near it (isa.MaxIssueWidth is 8).
	packMax = 63

	packLow7 = 0x7f7f7f7f7f7f7f7f // 127 in every byte
	packHigh = 0x8080808080808080 // bit 7 of every byte
	packRep  = 0x0101010101010101 // broadcast multiplier
	packDiag = 0x8040201008040201 // bit c in byte c
)

// PackedOcc is an occupancy in SWAR form: byte c of each word is the
// cluster-c count of that slot class, CM is the used-cluster bitmask
// and Ops the total operation count.
type PackedOcc struct {
	T, M, L, B uint64 // Total / Mul / Mem (load-store) / Branch per cluster
	CM         uint8
	Ops        uint8
}

// PackOcc converts an occupancy to packed form. It reports false when
// any per-cluster count exceeds packMax, which no occupancy that fits a
// valid machine alone does.
func PackOcc(o *isa.Occupancy) (PackedOcc, bool) {
	var p PackedOcc
	for c := 0; c < isa.MaxClusters; c++ {
		u := &o.Clusters[c]
		if u.Total > packMax || u.Mul > packMax || u.Mem > packMax || u.Branch > packMax {
			return PackedOcc{}, false
		}
		sh := uint(8 * c)
		p.T |= uint64(u.Total) << sh
		p.M |= uint64(u.Mul) << sh
		p.L |= uint64(u.Mem) << sh
		p.B |= uint64(u.Branch) << sh
		if u.Total > 0 {
			p.CM |= 1 << uint(c)
		}
	}
	p.Ops = o.Ops
	return p, true
}

// PackedLimits is a machine's issue constraints in SWAR form: byte c of
// each word is 127-limit for that slot class on cluster c, so a packed
// sum exceeds the limit exactly when adding the constant sets bit 7.
// Bytes for clusters the machine does not have are zero — with counts
// capped at packMax the test bit can never fire there, mirroring
// CompatSMT's c < Machine.Clusters loop bound.
type PackedLimits struct {
	KT, KM, KL, KB uint64
}

// PackLimits converts a machine's merge constraints to packed form. It
// reports false when any limit exceeds packMax (the SWAR byte headroom),
// which no valid machine's does.
func PackLimits(m *isa.Machine) (PackedLimits, bool) {
	var lim PackedLimits
	if m.Clusters > isa.MaxClusters || m.IssueWidth > packMax || m.Muls > packMax || m.MemUnits > packMax {
		return lim, false
	}
	for c := 0; c < m.Clusters; c++ {
		sh := uint(8 * c)
		lim.KT |= uint64(127-m.IssueWidth) << sh
		lim.KM |= uint64(127-m.Muls) << sh
		lim.KL |= uint64(127-m.MemUnits) << sh
		br := 0
		if c < m.BranchClusters {
			br = 1
		}
		lim.KB |= uint64(127-br) << sh
	}
	return lim, true
}

// spread80 expands a cluster bitmask to a word with bit 7 set in byte c
// exactly when bit c is set — the overflow-test positions of the
// clusters in the mask.
//
//vliw:hotpath
func spread80(m uint8) uint64 {
	x := uint64(m) * packRep & packDiag
	return (x + packLow7) & packHigh
}

// chainSlot holds the selection of a subtree chain for the chain that
// consumes it: the merged packet and the ports it covers (0: empty).
type chainSlot struct {
	occ  PackedOcc
	mask uint32
}

// SelectPacked runs the merge stage from the run-wide packed-occupancy
// dictionary d: ids[p] is the dictionary index of port p's candidate
// (read only where valid has the bit set). It returns the selected-port
// mask and the merged packet's operation count — the only two facts of
// a Selection the simulator's cycle loop consumes. lim must be
// PackLimits of the machine the reference Select would receive, and
// every dictionary entry must have come from PackOcc of the
// corresponding candidate; under those premises the differential
// suites hold it bit-identical to the reference Selector. Like every
// Selector it is pure on empty input: valid == 0 selects nothing and
// leaves the BMT baseline's current port alone.
//
//vliw:hotpath
func (c *Compiled) SelectPacked(d []PackedOcc, lim *PackedLimits, ids []int32, valid uint32) (uint32, uint8) {
	if c.kind == evalTree {
		return c.packedTree(d, lim, ids, valid)
	}
	return c.packedBaseline(d, ids, valid)
}

// packedBaseline issues exactly one thread: IMT the lowest valid port
// (the highest priority under the simulator's rotation), BMT its
// current port while that stays valid, else the next valid port after
// it in cyclic order, which becomes current.
//
//vliw:hotpath
func (c *Compiled) packedBaseline(d []PackedOcc, ids []int32, valid uint32) (uint32, uint8) {
	if valid == 0 {
		return 0, 0
	}
	p := uint(bits.TrailingZeros32(valid))
	if c.kind == evalBMT {
		if valid&(1<<c.cur) != 0 {
			p = c.cur
		} else if after := valid &^ (2<<c.cur - 1); after != 0 {
			p = uint(bits.TrailingZeros32(after))
		}
		c.cur = p
	}
	return 1 << p, d[ids[p]].Ops
}

// packedTree evaluates a merge tree as its left-deep chains
// (chainSteps) with the reference walk's merge rules: subtree chain i
// leaves its selection in slot i, and the root's chain, last, returns.
// A cascade or a flat parallel node is the root's chain alone.
//
//vliw:hotpath
func (c *Compiled) packedTree(d []PackedOcc, lim *PackedLimits, ids []int32, valid uint32) (uint32, uint8) {
	for i := range c.slots {
		c.foldChain(c.chains[i], &c.slots[i], d, lim, ids, valid)
	}
	return c.foldChain(c.chains[len(c.slots)], nil, d, lim, ids, valid)
}

// foldChain folds one chain: the base packet accumulates accepted
// inputs in input order, CSMT steps testing cluster disjointness and
// SMT steps the SWAR capacity check, and an incompatible input is
// dropped whole (VLIW all-or-nothing sub-packets). A leaf step reads
// the candidate's dictionary entry in place and an invalid port
// contributes nothing; a subtree step reads the slot its chain,
// evaluated earlier, left behind. It returns the ports the merged
// packet covers and its operation count, and when out is not nil (a
// subtree's chain) leaves the packet and ports there. The accumulator
// is held in scalars, not a PackedOcc, which the compiler would keep in
// memory, and only a subtree's chain stores it.
//
//vliw:hotpath
func (c *Compiled) foldChain(steps []foldStep, out *chainSlot, d []PackedOcc, lim *PackedLimits, ids []int32, valid uint32) (uint32, uint8) {
	var aT, aM, aL, aB uint64
	var cm, ops uint8
	var mask uint32
	for i := range steps {
		st := &steps[i]
		var s *PackedOcc
		var m uint32
		if st.slot {
			sl := &c.slots[st.port]
			if sl.mask == 0 {
				continue
			}
			s, m = &sl.occ, sl.mask
		} else {
			if valid&(1<<st.port) == 0 {
				continue
			}
			s, m = &d[ids[st.port]], 1<<st.port
		}
		if mask == 0 {
			aT, aM, aL, aB = s.T, s.M, s.L, s.B
			cm, ops, mask = s.CM, s.Ops, m
			continue
		}
		if st.kind == CSMT {
			if cm&s.CM != 0 {
				continue
			}
		} else {
			both := spread80(cm & s.CM)
			ex := ((aT + s.T + lim.KT) | (aM + s.M + lim.KM) |
				(aL + s.L + lim.KL) | (aB + s.B + lim.KB)) & packHigh & both
			if ex != 0 {
				continue
			}
		}
		aT += s.T
		aM += s.M
		aL += s.L
		aB += s.B
		cm |= s.CM
		ops += s.Ops
		mask |= m
	}
	if out != nil {
		out.occ = PackedOcc{T: aT, M: aM, L: aL, B: aB, CM: cm, Ops: ops}
		out.mask = mask
	}
	return mask, ops
}
