package program

import "vliwmt/internal/isa"

// PlannedMem is one memory operation of a planned instruction: the
// address stream it draws from and whether the access stores.
type PlannedMem struct {
	Stream int32
	Store  bool
}

// PlannedInstr is one instruction of a Plan: everything the simulator
// needs per retire, precomputed into a flat record so the cycle loop
// reads one array entry instead of chasing Blocks/Instrs/Ops. The flat
// successor indices (Next, Target) replace the block/idx bookkeeping of
// the pointer-chasing path.
type PlannedInstr struct {
	// Occ is the instruction's occupancy, copied out so candidate
	// gathering never touches the Instruction.
	Occ isa.Occupancy
	// OccID is the dense index of Occ in the plan's occupancy
	// dictionary: equal IDs imply equal occupancy values, which lets the
	// merge stage's packed dictionary stand in for 33-byte structs.
	OccID int32
	// Addr is the unrelocated fetch address; add Walker.CodeOffset.
	Addr uint64
	// Ops is the instruction's operation count (RetireInfo.Ops).
	Ops int32
	// Line is the fetch line's index among the I-cache's pinned lines
	// (cache.Cache.PinnedLine), or -1 when fetches go through Access;
	// NewPlan sets -1 and the simulator fills it in after relocation.
	Line int32
	// Mem lists the memory operations in program order. It aliases the
	// plan's shared backing array; do not append to it.
	Mem []PlannedMem
	// Block is the index of the owning block in P.Blocks.
	Block int32
	// Next is the flat index retired to when the branch (if any) is not
	// taken: f+1 inside a block, Start[block.Next] at a block end.
	Next int32
	// Target is the flat index of the taken-branch successor; -1 unless
	// Branch is set.
	Target int32
	// Last marks the final instruction of its block.
	Last bool
	// Branch marks a Last instruction whose block resolves a branch on
	// retire (a branch op is present and the block has a branch target).
	Branch bool
}

// Plan is the flattened execution form of a Program: every instruction
// of every block in one contiguous table, with successor flat indices
// precomputed. A Plan is immutable after NewPlan and carries no
// execution state, so one Plan is safely shared by any number of
// Walkers across concurrent simulations.
type Plan struct {
	P      *Program
	Instrs []PlannedInstr
	// Start[b] is the flat index of block b's first instruction.
	Start []int32
	// NumOccs is the size of the occupancy dictionary: OccID values are
	// in [0, NumOccs).
	NumOccs int
}

// NewPlan flattens p. The program must already be validated.
func NewPlan(p *Program) *Plan {
	pl := &Plan{P: p, Start: make([]int32, len(p.Blocks))}
	total, nmem := 0, 0
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		pl.Start[bi] = int32(total)
		total += len(b.Instrs)
		for ii := range b.Instrs {
			for _, op := range b.Instrs[ii].Ops {
				if op.Class == isa.OpMem {
					nmem++
				}
			}
		}
	}
	pl.Instrs = make([]PlannedInstr, 0, total)
	membuf := make([]PlannedMem, 0, nmem)
	occIDs := map[isa.Occupancy]int32{}
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			id, ok := occIDs[in.Occ]
			if !ok {
				id = int32(len(occIDs))
				occIDs[in.Occ] = id
			}
			pi := PlannedInstr{
				Occ:    in.Occ,
				OccID:  id,
				Addr:   b.Addrs[ii],
				Ops:    int32(len(in.Ops)),
				Line:   -1,
				Block:  int32(bi),
				Next:   int32(len(pl.Instrs)) + 1,
				Target: -1,
			}
			hasBranch := false
			start := len(membuf)
			for _, op := range in.Ops {
				switch op.Class {
				case isa.OpMem:
					membuf = append(membuf, PlannedMem{Stream: int32(op.Stream), Store: op.IsStore})
				case isa.OpBranch:
					hasBranch = true
				}
			}
			if len(membuf) > start {
				// Full-slice expression: a stray append can never bleed
				// into the next instruction's operations.
				pi.Mem = membuf[start:len(membuf):len(membuf)]
			}
			if ii == len(b.Instrs)-1 {
				pi.Last = true
				pi.Next = pl.Start[b.Next]
				if hasBranch && b.BranchTarget >= 0 {
					pi.Branch = true
					pi.Target = pl.Start[b.BranchTarget]
				}
			}
			pl.Instrs = append(pl.Instrs, pi)
		}
	}
	pl.NumOccs = len(occIDs)
	return pl
}

// MemAddr draws the address of memory operation m of the instruction
// being retired through RetirePlan, advancing m's address stream. A
// plan-driven retire of planned instruction pi is one MemAddr call per
// entry of pi.Mem, in order, and then RetirePlan: the caller can act on
// each address as it is drawn (the cycle loop performs the D-cache
// access), and nothing is buffered.
//
//vliw:hotpath
func (w *Walker) MemAddr(m *PlannedMem) uint64 {
	return w.streamAddr(int(m.Stream))
}

// RetirePlan is Retire driven by a Plan: it retires the planned
// instruction at flat index f (which must be the walker's current
// position, and whose memory addresses the caller has already drawn
// through MemAddr) and returns the successor flat index and whether a
// taken branch ended the block. The RNG draw order is exactly Retire's
// — one stream draw per memory op in program order, then at most one
// branch draw at a block end — so a Walker driven through MemAddr and
// RetirePlan stays bit-identical to one driven through Retire. The
// walker's own block/idx position is kept coherent, so the two APIs may
// be mixed.
//
//vliw:hotpath
func (w *Walker) RetirePlan(pl *Plan, f int32) (next int32, taken bool) {
	pi := &pl.Instrs[f]
	w.Retired++
	if !pi.Last {
		w.idx++
		return pi.Next, false
	}
	next = pi.Next
	if pi.Branch && w.takeBranch(&w.P.Blocks[pi.Block]) {
		taken = true
		next = pi.Target
	}
	w.block = int(pl.Instrs[next].Block)
	w.idx = 0
	return next, taken
}
