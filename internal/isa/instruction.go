package isa

import (
	"fmt"
	"sort"
	"strings"
)

// ClusterUse summarises how one VLIW instruction (or a merged execution
// packet) uses the issue slots of a single cluster.
type ClusterUse struct {
	Total  uint8 // operations of any class
	Mul    uint8 // multiply operations
	Mem    uint8 // load/store operations
	Branch uint8 // branch operations
}

// IsZero reports whether the cluster is completely unused: every count,
// not only Total, is zero.
func (u ClusterUse) IsZero() bool { return u == ClusterUse{} }

// Occupancy is the per-cluster resource summary of an instruction or a
// merged execution packet. It is the only information the thread merge
// control inspects, mirroring the decode summary available to the hardware.
type Occupancy struct {
	Clusters [MaxClusters]ClusterUse
	// Ops is the total operation count across clusters.
	Ops uint8
}

// OccupancyOf computes the occupancy summary of a list of operations.
func OccupancyOf(ops []Op) Occupancy {
	var occ Occupancy
	for _, op := range ops {
		occ.addOp(op)
	}
	return occ
}

func (o *Occupancy) addOp(op Op) {
	u := &o.Clusters[op.Cluster]
	u.Total++
	o.Ops++
	switch op.Class {
	case OpMul:
		u.Mul++
	case OpMem:
		u.Mem++
	case OpBranch:
		u.Branch++
	}
}

// ClusterMask returns a bitmask with bit c set when cluster c issues at
// least one operation. This is the entire view the CSMT merge control has.
func (o Occupancy) ClusterMask() uint8 {
	var m uint8
	for c := range o.Clusters {
		if o.Clusters[c].Total > 0 {
			m |= 1 << uint(c)
		}
	}
	return m
}

// CompatCSMT reports whether two packets can merge at cluster level: they
// must use disjoint sets of clusters.
func (o Occupancy) CompatCSMT(b Occupancy) bool {
	return o.ClusterMask()&b.ClusterMask() == 0
}

// CompatSMT reports whether two packets can merge at operation level on
// machine m. Merging requires, per cluster, that the combined operation
// count fits the issue width and that fixed-slot unit classes (multiply,
// memory, branch) do not oversubscribe their units. ALU operations can be
// rerouted to any free slot by the SMT routing block, so only counts matter.
func (o Occupancy) CompatSMT(b Occupancy, m *Machine) bool {
	for c := 0; c < m.Clusters; c++ {
		ua, ub := o.Clusters[c], b.Clusters[c]
		if ua.Total == 0 || ub.Total == 0 {
			continue
		}
		if int(ua.Total)+int(ub.Total) > m.IssueWidth {
			return false
		}
		if int(ua.Mul)+int(ub.Mul) > m.Muls {
			return false
		}
		if int(ua.Mem)+int(ub.Mem) > m.MemUnits {
			return false
		}
		br := 0
		if c < m.BranchClusters {
			br = 1
		}
		if int(ua.Branch)+int(ub.Branch) > br {
			return false
		}
	}
	return true
}

// Union returns the occupancy of the merged packet. Callers must have
// verified compatibility first; Union itself never fails.
func (o Occupancy) Union(b Occupancy) Occupancy {
	r := o
	for c := range r.Clusters {
		r.Clusters[c].Total += b.Clusters[c].Total
		r.Clusters[c].Mul += b.Clusters[c].Mul
		r.Clusters[c].Mem += b.Clusters[c].Mem
		r.Clusters[c].Branch += b.Clusters[c].Branch
	}
	r.Ops += b.Ops
	return r
}

// FitsAlone reports whether the packet is issueable by itself on machine m.
// Compiled instructions always satisfy this; merged packets satisfy it by
// construction when every pairwise merge was compatible.
func (o Occupancy) FitsAlone(m *Machine) bool {
	for c := 0; c < m.Clusters; c++ {
		u := o.Clusters[c]
		br := 0
		if c < m.BranchClusters {
			br = 1
		}
		if int(u.Total) > m.IssueWidth || int(u.Mul) > m.Muls ||
			int(u.Mem) > m.MemUnits || int(u.Branch) > br {
			return false
		}
	}
	for c := m.Clusters; c < MaxClusters; c++ {
		if !o.Clusters[c].IsZero() {
			return false
		}
	}
	return true
}

func (o Occupancy) String() string {
	var parts []string
	for c := 0; c < MaxClusters; c++ {
		u := o.Clusters[c]
		if u.IsZero() {
			continue
		}
		parts = append(parts, fmt.Sprintf("c%d:%d(m%d/l%d/b%d)", c, u.Total, u.Mul, u.Mem, u.Branch))
	}
	if len(parts) == 0 {
		return "empty"
	}
	return strings.Join(parts, " ")
}

// Instruction is one scheduled VLIW instruction: the operations that issue
// together in a single cycle, plus the precomputed occupancy summary used by
// the merge stage and the instruction's encoded size in bytes (for ICache
// modelling).
type Instruction struct {
	Ops []Op
	Occ Occupancy
}

// NewInstruction builds an instruction from ops, computing its occupancy.
// Operations are ordered by cluster for a stable textual form.
func NewInstruction(ops []Op) Instruction {
	sorted := make([]Op, len(ops))
	copy(sorted, ops)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cluster < sorted[j].Cluster })
	return Instruction{Ops: sorted, Occ: OccupancyOf(sorted)}
}

// EncodedSize returns the instruction footprint in bytes. VEX-style
// encodings spend roughly four bytes per operation plus a four-byte header
// word carrying the stop bit and cluster mask.
func (in Instruction) EncodedSize() int { return 4 + 4*len(in.Ops) }

// Validate checks the instruction against machine m: every operation must
// target an existing cluster and the occupancy must fit the machine.
func (in Instruction) Validate(m *Machine) error {
	for _, op := range in.Ops {
		if int(op.Cluster) >= m.Clusters {
			return fmt.Errorf("isa: operation %v targets cluster %d of a %d-cluster machine", op, op.Cluster, m.Clusters)
		}
	}
	if !in.Occ.FitsAlone(m) {
		return fmt.Errorf("isa: instruction oversubscribes machine resources: %v", in.Occ)
	}
	return nil
}

func (in Instruction) String() string {
	if len(in.Ops) == 0 {
		return "nop"
	}
	parts := make([]string, len(in.Ops))
	for i, op := range in.Ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, " ; ")
}
