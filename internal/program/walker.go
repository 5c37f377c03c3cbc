package program

import (
	"vliwmt/internal/ir"
	"vliwmt/internal/isa"
)

// MemAccess is one data-memory access produced by retiring an instruction.
type MemAccess struct {
	Addr  uint64
	Store bool
}

// RetireInfo summarises the simulator-visible events of one retired
// instruction.
type RetireInfo struct {
	// Mem lists the data accesses of the instruction's memory operations.
	Mem []MemAccess
	// Taken reports whether the instruction ended the block with a taken
	// branch.
	Taken bool
	// Ops is the number of operations retired.
	Ops int
}

// Walker executes a Program instruction by instruction, evaluating branch
// behaviours and memory address streams deterministically from a seed.
// Each simulated thread owns one Walker.
type Walker struct {
	P *Program
	// CodeOffset relocates instruction fetch addresses (per-thread code
	// placement); DataOffset relocates data addresses (separate address
	// spaces for separate processes).
	CodeOffset, DataOffset uint64

	rng        uint64
	block, idx int
	loopCount  []int
	streamPos  []uint64
	memBuf     []MemAccess
	// Retired counts instructions retired so far.
	Retired int64
}

// NewWalker starts execution of p at block 0 with the given seed and
// address offsets.
func NewWalker(p *Program, seed uint64, codeOffset, dataOffset uint64) *Walker {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Walker{
		P:          p,
		CodeOffset: codeOffset,
		DataOffset: dataOffset,
		rng:        seed,
		loopCount:  make([]int, p.NumBranchSites),
		streamPos:  make([]uint64, len(p.Streams)),
		memBuf:     make([]MemAccess, 0, 8),
	}
}

// xorshift64star; deterministic and fast.
func (w *Walker) next() uint64 {
	x := w.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	w.rng = x
	return x * 0x2545f4914f6cdd1d
}

// Current returns the instruction at the walker position and its fetch
// address.
func (w *Walker) Current() (*isa.Instruction, uint64) {
	b := &w.P.Blocks[w.block]
	return &b.Instrs[w.idx], b.Addrs[w.idx] + w.CodeOffset
}

// streamAddr evaluates and advances address stream si.
func (w *Walker) streamAddr(si int) uint64 {
	s := &w.P.Streams[si]
	switch s.Kind {
	case ir.StreamStride:
		pos := w.streamPos[si]
		if st := uint64(s.Stride); s.Stride >= 0 && st < s.Footprint {
			// pos < Footprint holds (it starts at 0 and every step keeps
			// it there), so the wrap is one conditional subtract; the
			// compare against Footprint-st cannot overflow.
			if pos >= s.Footprint-st {
				w.streamPos[si] = pos - (s.Footprint - st)
			} else {
				w.streamPos[si] = pos + st
			}
		} else {
			// ir.Validate does not bound strides: keep the general form.
			w.streamPos[si] = (pos + st) % s.Footprint
		}
		return s.Base + pos + w.DataOffset
	case ir.StreamRandom:
		off := (w.next() % (s.Footprint / 4)) * 4
		return s.Base + off + w.DataOffset
	default: // StreamChase: line-aligned dependent chain of random lines
		off := (w.next() % (s.Footprint / 64)) * 64
		return s.Base + off + w.DataOffset
	}
}

// Retire consumes the current instruction: it computes the instruction's
// memory accesses and branch outcome and advances the walker to the next
// instruction. The returned RetireInfo (including Mem) is valid until the
// next Retire call.
func (w *Walker) Retire() RetireInfo {
	b := &w.P.Blocks[w.block]
	in := &b.Instrs[w.idx]
	info := RetireInfo{Ops: len(in.Ops)}
	w.memBuf = w.memBuf[:0]
	hasBranch := false
	for _, op := range in.Ops {
		switch op.Class {
		case isa.OpMem:
			w.memBuf = append(w.memBuf, MemAccess{Addr: w.streamAddr(int(op.Stream)), Store: op.IsStore})
		case isa.OpBranch:
			hasBranch = true
		}
	}
	info.Mem = w.memBuf
	w.Retired++

	last := w.idx == len(b.Instrs)-1
	if !last {
		w.idx++
		return info
	}
	// Block end: resolve the branch (if any) and move on.
	nextBlock := b.Next
	if hasBranch && b.BranchTarget >= 0 {
		if w.takeBranch(b) {
			info.Taken = true
			nextBlock = b.BranchTarget
		}
	}
	w.block = nextBlock
	w.idx = 0
	return info
}

func (w *Walker) takeBranch(b *Block) bool {
	switch b.Behavior.Kind {
	case ir.BranchAlways:
		return true
	case ir.BranchNever:
		return false
	case ir.BranchLoop:
		c := w.loopCount[b.BranchStream] + 1
		if c >= b.Behavior.TripCount {
			w.loopCount[b.BranchStream] = 0
			return false
		}
		w.loopCount[b.BranchStream] = c
		return true
	default: // BranchBernoulli
		// 53-bit uniform in [0,1).
		u := float64(w.next()>>11) / (1 << 53)
		return u < b.Behavior.Prob
	}
}
