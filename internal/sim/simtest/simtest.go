// Package simtest holds the small-scope domain the cycle-loop
// conformance tests enumerate: a small machine, every hand-built
// one-block loop of one or two instructions over five instruction
// shapes, and the memory models the loops run under. The domain is
// small enough to run whole, so a divergence between the cycle loop and
// its oracle is first met on a minimal case: two tiny loops, a few dozen
// instructions.
package simtest

import (
	"vliwmt/internal/cache"
	"vliwmt/internal/ir"
	"vliwmt/internal/isa"
	"vliwmt/internal/program"
	"vliwmt/internal/sim"
)

// instrLimit is the per-thread instruction budget of a domain run.
const instrLimit = 40

// machine is the domain's processor: 2 clusters of 2 issue slots, one
// multiplier and one memory unit per cluster, branches on cluster 0 and
// the default latencies and 2-cycle taken-branch squash.
func machine() isa.Machine {
	m := isa.Default()
	m.Clusters = 2
	m.IssueWidth = 2
	m.Muls = 1
	m.MemUnits = 1
	return m
}

// shape is one instruction shape of the domain.
type shape struct {
	name string
	ops  []isa.Op
}

// shapes returns the five instruction shapes: an ALU op on cluster 0 or
// on cluster 1, a load on cluster 1 (a strided stream), a multiply on
// cluster 1 with an ALU op on cluster 0, and an ALU op on cluster 0 with
// a load on cluster 1 (a random stream, which draws on the walker's
// RNG). Each still fits the machine when a loop's branch on cluster 0
// joins it.
func shapes() []shape {
	alu := func(c uint8) isa.Op { return isa.Op{Class: isa.OpALU, Cluster: c, Stream: -1} }
	load := func(stream int16) isa.Op { return isa.Op{Class: isa.OpMem, Cluster: 1, Stream: stream} }
	return []shape{
		{"a0", []isa.Op{alu(0)}},
		{"a1", []isa.Op{alu(1)}},
		{"l1", []isa.Op{load(0)}},
		{"m1a0", []isa.Op{{Class: isa.OpMul, Cluster: 1, Stream: -1}, alu(0)}},
		{"a0r1", []isa.Op{alu(0), load(1)}},
	}
}

// streams are the data streams the loads draw from: a strided walk over
// six 16-byte lines and a uniform draw over eight, so two threads
// overflow the domain's 128-byte data cache.
var streams = []ir.MemStream{
	{Kind: ir.StreamStride, Stride: 8, Footprint: 96},
	{Kind: ir.StreamRandom, Base: 4096, Footprint: 128},
}

// Programs returns every one-block loop of one or two shapes whose last
// instruction also carries the loop's branch on cluster 0, always taken
// or a Loop(2), in enumeration order: 60 programs, each named after its
// shapes and branch ("a0.l1/loop2").
func Programs() []*program.Program {
	all := shapes()
	var bodies [][]shape
	for _, a := range all {
		bodies = append(bodies, []shape{a})
	}
	for _, a := range all {
		for _, b := range all {
			bodies = append(bodies, []shape{a, b})
		}
	}
	var out []*program.Program
	for _, body := range bodies {
		for _, br := range []struct {
			name string
			b    ir.BranchBehavior
		}{{"always", ir.Always()}, {"loop2", ir.Loop(2)}} {
			out = append(out, loop(body, br.name, br.b))
		}
	}
	return out
}

// loop builds the one-block loop over body closed by a branch of
// behaviour br.
func loop(body []shape, brName string, br ir.BranchBehavior) *program.Program {
	blk := program.Block{Name: "loop", BranchTarget: 0, Behavior: br, BranchStream: 0}
	name := ""
	var addr uint64
	for i, s := range body {
		if i > 0 {
			name += "."
		}
		name += s.name
		ops := append([]isa.Op(nil), s.ops...)
		if i == len(body)-1 {
			ops = append(ops, isa.Op{Class: isa.OpBranch, Cluster: 0, Stream: -1})
		}
		in := isa.NewInstruction(ops)
		blk.Instrs = append(blk.Instrs, in)
		blk.Addrs = append(blk.Addrs, addr)
		addr += uint64(in.EncodedSize())
	}
	return &program.Program{
		Name:           name + "/" + brName,
		Blocks:         []program.Block{blk},
		Streams:        streams,
		CodeSize:       addr,
		NumBranchSites: 1,
	}
}

// Memory is one memory model of the domain.
type Memory struct {
	Name    string
	Perfect bool
	ICache  cache.Config
	DCache  cache.Config
}

// Memories returns the three memory models: perfect memory; a 128-byte
// 2-way data cache and a 64-byte direct-mapped instruction cache of
// 16-byte lines, whose misses stall for a few cycles so a stall often
// ends before another thread's; and the same caches at zero miss
// penalty, where a miss costs only its own cycle.
func Memories() []Memory {
	ic := cache.Config{Size: 64, LineSize: 16, Ways: 1, MissPenalty: 3}
	dc := cache.Config{Size: 128, LineSize: 16, Ways: 2, MissPenalty: 5}
	ic0, dc0 := ic, dc
	ic0.MissPenalty, dc0.MissPenalty = 0, 0
	return []Memory{
		{Name: "perfect", Perfect: true},
		{Name: "caches", ICache: ic, DCache: dc},
		{Name: "caches-0", ICache: ic0, DCache: dc0},
	}
}

// TwoWayFetch returns the caches model with a 2-way instruction cache
// of the same size. Every domain program's instructions lie in the
// first 16-byte line of its code, and every task's first line falls in
// set 0: two tasks' lines fit that set, so every fetch takes the pinned
// path (cache.Cache.Pin), while under Memories' direct-mapped caches
// the two lines overflow the set and every fetch goes through Access.
func TwoWayFetch() Memory {
	m := Memories()[1]
	m.Name = "caches-2way-fetch"
	m.ICache.Ways = 2
	return m
}

// Schemes2 returns the merge controls of two contexts the domain runs
// under: both tree nodes, both baselines and the paper's 1S.
func Schemes2() []string {
	return []string{"S(T0,T1)", "C(T0,T1)", "IMT", "BMT", "1S"}
}

// Config returns the domain's run config for the scheme on two
// contexts under memory model mem: the domain machine, a 40-instruction
// budget and seed 1.
func Config(scheme string, mem Memory) sim.Config {
	return sim.Config{
		Machine:       machine(),
		ICache:        mem.ICache,
		DCache:        mem.DCache,
		PerfectMemory: mem.Perfect,
		Contexts:      2,
		Scheme:        scheme,
		InstrLimit:    instrLimit,
		Seed:          1,
	}
}

// Tasks wraps programs as simulation tasks named after them.
func Tasks(progs ...*program.Program) []sim.Task {
	tasks := make([]sim.Task, len(progs))
	for i, p := range progs {
		tasks[i] = sim.Task{Name: p.Name, Prog: p}
	}
	return tasks
}
