// Package isa defines the clustered VLIW machine model used throughout the
// repository: operation classes, per-cluster functional-unit constraints,
// VLIW instructions and the occupancy summaries consumed by the thread
// merging hardware.
//
// The model follows the VEX/HP-ST Lx architecture evaluated in the paper:
// M clusters, W issue slots per cluster, one load/store unit and two
// multipliers per cluster, ALU operations executable at any slot, and a
// single branch unit attached to cluster 0. Memory and multiply operations
// have a latency of two cycles; everything else completes in one.
package isa

import "fmt"

// MaxClusters is the maximum number of clusters supported by the fixed-size
// occupancy summaries. Eight clusters is double the paper's largest
// configuration and keeps summaries in a single cache line.
const MaxClusters = 8

// MaxIssueWidth is the maximum number of issue slots per cluster.
const MaxIssueWidth = 8

// MaxLatency bounds each operation latency: the compiler keeps a
// schedule row per cycle of latency (about 4.6 KB per cycle for mcf),
// so an unbounded latency is an unbounded allocation. Real latencies
// are a few cycles (1–2 here).
const MaxLatency = 256

// MaxBranchPenalty bounds the taken-branch squash, which the cycle loop
// adds to a cycle; 2^20 keeps that sum far from overflow and far beyond
// any pipeline (the paper's penalty is 2).
const MaxBranchPenalty = 1 << 20

// Machine describes a clustered VLIW processor configuration. Its json
// tags are the wire and store form of a machine.
//
// The zero value is not a valid machine; use Default for the paper's
// 4-cluster, 4-issue-per-cluster configuration or fill in the fields and
// call Validate.
type Machine struct {
	// Clusters is the number of register-file clusters (M).
	Clusters int `json:"clusters,omitempty"`
	// IssueWidth is the number of issue slots per cluster (W). Every slot
	// can execute an ALU operation.
	IssueWidth int `json:"issue_width,omitempty"`
	// Muls is the number of multiplier units per cluster.
	Muls int `json:"muls,omitempty"`
	// MemUnits is the number of load/store units per cluster.
	MemUnits int `json:"mem_units,omitempty"`
	// BranchClusters is the number of clusters (starting from cluster 0)
	// that host a branch unit. The paper's architecture resolves branches
	// on cluster 0 only.
	BranchClusters int `json:"branch_clusters,omitempty"`

	// LatencyALU, LatencyMul and LatencyMem are operation latencies in
	// cycles. Copy is the latency of an intercluster copy.
	LatencyALU  int `json:"latency_alu,omitempty"`
	LatencyMul  int `json:"latency_mul,omitempty"`
	LatencyMem  int `json:"latency_mem,omitempty"`
	LatencyCopy int `json:"latency_copy,omitempty"`

	// BranchPenalty is the number of squashed cycles after a taken branch
	// (there is no branch predictor; fall-through is the predicted path).
	BranchPenalty int `json:"branch_penalty,omitempty"`
}

// Default returns the machine configuration used in the paper's evaluation:
// 16-issue, 4 clusters x 4 issue slots, 2 multipliers and 1 load/store unit
// per cluster, branch unit on cluster 0, 2-cycle memory and multiply
// latency, and a 2-cycle taken-branch penalty.
func Default() Machine {
	return Machine{
		Clusters:       4,
		IssueWidth:     4,
		Muls:           2,
		MemUnits:       1,
		BranchClusters: 1,
		LatencyALU:     1,
		LatencyMul:     2,
		LatencyMem:     2,
		LatencyCopy:    1,
		BranchPenalty:  2,
	}
}

// Validate reports whether the machine description is internally consistent.
func (m Machine) Validate() error {
	switch {
	case m.Clusters < 1 || m.Clusters > MaxClusters:
		return fmt.Errorf("isa: clusters must be in [1,%d], got %d", MaxClusters, m.Clusters)
	case m.IssueWidth < 1 || m.IssueWidth > MaxIssueWidth:
		return fmt.Errorf("isa: issue width must be in [1,%d], got %d", MaxIssueWidth, m.IssueWidth)
	case m.Muls < 0 || m.Muls > m.IssueWidth:
		return fmt.Errorf("isa: multipliers per cluster must be in [0,%d], got %d", m.IssueWidth, m.Muls)
	case m.MemUnits < 0 || m.MemUnits > m.IssueWidth:
		return fmt.Errorf("isa: memory units per cluster must be in [0,%d], got %d", m.IssueWidth, m.MemUnits)
	case m.BranchClusters < 0 || m.BranchClusters > m.Clusters:
		return fmt.Errorf("isa: branch clusters must be in [0,%d], got %d", m.Clusters, m.BranchClusters)
	case min(m.LatencyALU, m.LatencyMul, m.LatencyMem, m.LatencyCopy) < 1,
		max(m.LatencyALU, m.LatencyMul, m.LatencyMem, m.LatencyCopy) > MaxLatency:
		return fmt.Errorf("isa: operation latencies must be in [1,%d] cycles", MaxLatency)
	case m.BranchPenalty < 0 || m.BranchPenalty > MaxBranchPenalty:
		return fmt.Errorf("isa: branch penalty must be in [0,%d], got %d", MaxBranchPenalty, m.BranchPenalty)
	}
	return nil
}

// TotalIssueWidth returns the machine-wide issue width (Clusters * IssueWidth).
func (m Machine) TotalIssueWidth() int { return m.Clusters * m.IssueWidth }

// Latency returns the latency in cycles of an operation of class c.
func (m Machine) Latency(c OpClass) int {
	switch c {
	case OpMul:
		return m.LatencyMul
	case OpMem:
		return m.LatencyMem
	case OpCopy:
		return m.LatencyCopy
	default:
		return m.LatencyALU
	}
}

// UnitsFor returns how many issue slots of cluster cl can accept an
// operation of class c.
func (m Machine) UnitsFor(c OpClass, cl int) int {
	switch c {
	case OpMul:
		return m.Muls
	case OpMem:
		return m.MemUnits
	case OpBranch:
		if cl < m.BranchClusters {
			return 1
		}
		return 0
	default:
		return m.IssueWidth
	}
}

func (m Machine) String() string {
	return fmt.Sprintf("%d-cluster x %d-issue (%d-wide) VLIW", m.Clusters, m.IssueWidth, m.TotalIssueWidth())
}
