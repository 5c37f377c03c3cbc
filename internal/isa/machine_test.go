package isa

import "testing"

func TestDefaultMachineValid(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatalf("default machine invalid: %v", err)
	}
	if got := m.TotalIssueWidth(); got != 16 {
		t.Errorf("TotalIssueWidth = %d, want 16", got)
	}
	// Each upper bound is itself valid.
	m.LatencyALU, m.LatencyMul, m.LatencyMem, m.LatencyCopy = MaxLatency, MaxLatency, MaxLatency, MaxLatency
	m.BranchPenalty = MaxBranchPenalty
	if err := m.Validate(); err != nil {
		t.Errorf("Validate rejected the upper bounds: %v", err)
	}
}

func TestMachineValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
	}{
		{"zero clusters", func(m *Machine) { m.Clusters = 0 }},
		{"too many clusters", func(m *Machine) { m.Clusters = MaxClusters + 1 }},
		{"zero issue width", func(m *Machine) { m.IssueWidth = 0 }},
		{"issue width too large", func(m *Machine) { m.IssueWidth = MaxIssueWidth + 1 }},
		{"negative muls", func(m *Machine) { m.Muls = -1 }},
		{"muls exceed width", func(m *Machine) { m.Muls = m.IssueWidth + 1 }},
		{"negative mem units", func(m *Machine) { m.MemUnits = -1 }},
		{"mem units exceed width", func(m *Machine) { m.MemUnits = m.IssueWidth + 1 }},
		{"branch clusters exceed clusters", func(m *Machine) { m.BranchClusters = m.Clusters + 1 }},
		{"negative branch clusters", func(m *Machine) { m.BranchClusters = -1 }},
		{"zero alu latency", func(m *Machine) { m.LatencyALU = 0 }},
		{"zero mul latency", func(m *Machine) { m.LatencyMul = 0 }},
		{"zero mem latency", func(m *Machine) { m.LatencyMem = 0 }},
		{"zero copy latency", func(m *Machine) { m.LatencyCopy = 0 }},
		{"negative branch penalty", func(m *Machine) { m.BranchPenalty = -1 }},
		{"alu latency too large", func(m *Machine) { m.LatencyALU = MaxLatency + 1 }},
		{"mul latency too large", func(m *Machine) { m.LatencyMul = MaxLatency + 1 }},
		{"mem latency too large", func(m *Machine) { m.LatencyMem = 10_000_000 }},
		{"copy latency too large", func(m *Machine) { m.LatencyCopy = MaxLatency + 1 }},
		{"branch penalty too large", func(m *Machine) { m.BranchPenalty = MaxBranchPenalty + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := Default()
			tc.mut(&m)
			if err := m.Validate(); err == nil {
				t.Errorf("Validate accepted invalid machine %+v", m)
			}
		})
	}
}

func TestMachineLatency(t *testing.T) {
	m := Default()
	if got := m.Latency(OpALU); got != 1 {
		t.Errorf("ALU latency = %d, want 1", got)
	}
	if got := m.Latency(OpMul); got != 2 {
		t.Errorf("Mul latency = %d, want 2", got)
	}
	if got := m.Latency(OpMem); got != 2 {
		t.Errorf("Mem latency = %d, want 2", got)
	}
	if got := m.Latency(OpBranch); got != 1 {
		t.Errorf("Branch latency = %d, want 1", got)
	}
	if got := m.Latency(OpCopy); got != 1 {
		t.Errorf("Copy latency = %d, want 1", got)
	}
}

func TestMachineUnitsFor(t *testing.T) {
	m := Default()
	if got := m.UnitsFor(OpALU, 2); got != 4 {
		t.Errorf("ALU units = %d, want 4", got)
	}
	if got := m.UnitsFor(OpMul, 1); got != 2 {
		t.Errorf("Mul units = %d, want 2", got)
	}
	if got := m.UnitsFor(OpMem, 3); got != 1 {
		t.Errorf("Mem units = %d, want 1", got)
	}
	if got := m.UnitsFor(OpBranch, 0); got != 1 {
		t.Errorf("Branch units on cluster 0 = %d, want 1", got)
	}
	if got := m.UnitsFor(OpBranch, 1); got != 0 {
		t.Errorf("Branch units on cluster 1 = %d, want 0", got)
	}
}
