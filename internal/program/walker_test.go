package program_test

import (
	"testing"

	"vliwmt/internal/compiler"
	"vliwmt/internal/ir"
	"vliwmt/internal/isa"
	"vliwmt/internal/program"
)

// loopKernel builds a two-block program: a counted self-loop followed by a
// tail block that wraps around.
func loopKernel(t *testing.T, trip int) *program.Program {
	t.Helper()
	b := ir.NewBuilder("loop")
	s := b.Stream(ir.MemStream{Kind: ir.StreamStride, Stride: 8, Footprint: 256})
	b.Block("body")
	v := b.Load(s)
	b.ALU(v)
	b.Branch("body", ir.Loop(trip))
	b.Block("tail")
	b.ALU()
	p, err := compiler.Compile(b.MustFinish(), compiler.Options{Machine: isa.Default()})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// drainBlock retires instructions until the walker leaves the current
// block, returning the number of taken branches observed.
func runRetires(w *program.Walker, n int) (taken int, mem []program.MemAccess) {
	for i := 0; i < n; i++ {
		info := w.Retire()
		if info.Taken {
			taken++
		}
		for _, a := range info.Mem {
			mem = append(mem, a)
		}
	}
	return taken, mem
}

func TestWalkerLoopTripCount(t *testing.T) {
	const trip = 5
	p := loopKernel(t, trip)
	w := program.NewWalker(p, 1, 0, 0)
	bodyLen := len(p.Blocks[0].Instrs)
	tailLen := len(p.Blocks[1].Instrs)
	// One full pass: body executes trip times, then tail once.
	total := trip*bodyLen + tailLen
	taken, _ := runRetires(w, total)
	if taken != trip-1 {
		t.Errorf("taken branches = %d, want %d", taken, trip-1)
	}
	// After the pass the walker is back at body start.
	in, _ := w.Current()
	if in != &p.Blocks[0].Instrs[0] {
		t.Errorf("walker did not wrap to the first block")
	}
	// Second pass behaves identically (loop counter reset).
	taken, _ = runRetires(w, total)
	if taken != trip-1 {
		t.Errorf("second pass taken = %d, want %d", taken, trip-1)
	}
}

func TestWalkerStrideAddresses(t *testing.T) {
	p := loopKernel(t, 100)
	w := program.NewWalker(p, 1, 0, 0)
	bodyLen := len(p.Blocks[0].Instrs)
	_, mem := runRetires(w, bodyLen*40)
	if len(mem) != 40 {
		t.Fatalf("got %d accesses, want 40", len(mem))
	}
	for i, a := range mem {
		want := uint64((i * 8) % 256)
		if a.Addr != want {
			t.Fatalf("access %d addr = %d, want %d", i, a.Addr, want)
		}
		if a.Store {
			t.Fatalf("load reported as store")
		}
	}
}

// TestWalkerStrideWrapMatchesModulo pins the stride stream's wrap to
// the modulo formula pos' = (pos + uint64(Stride)) % Footprint across
// several wraps, for strides on both sides of the conditional-subtract
// fast path (0 <= Stride < Footprint) and for the strides that keep the
// general form (Stride >= Footprint, negative).
func TestWalkerStrideWrapMatchesModulo(t *testing.T) {
	const fp = 320 // not a power of two, so no mask could stand in
	for _, stride := range []int64{0, 2, fp - 1, fp, fp + 3, -24} {
		b := ir.NewBuilder("stride")
		s := b.Stream(ir.MemStream{Kind: ir.StreamStride, Base: 0x40, Stride: stride, Footprint: fp})
		b.Block("body")
		b.Load(s)
		b.Branch("body", ir.Always())
		p, err := compiler.Compile(b.MustFinish(), compiler.Options{Machine: isa.Default()})
		if err != nil {
			t.Fatal(err)
		}
		w := program.NewWalker(p, 1, 0, 0x1000)
		const loads = 2000 // stride 2 wraps 12 times
		_, mem := runRetires(w, loads*len(p.Blocks[0].Instrs))
		if len(mem) != loads {
			t.Fatalf("stride %d: got %d accesses, want %d", stride, len(mem), loads)
		}
		var pos uint64
		for i, a := range mem {
			if want := 0x40 + pos + 0x1000; a.Addr != want {
				t.Fatalf("stride %d: access %d addr = %#x, want %#x", stride, i, a.Addr, want)
			}
			pos = (pos + uint64(stride)) % fp
		}
	}
}

func TestWalkerOffsets(t *testing.T) {
	p := loopKernel(t, 100)
	w := program.NewWalker(p, 1, 0x1000, 0x2000)
	_, fetchAddr := w.Current()
	if fetchAddr != p.Blocks[0].Addrs[0]+0x1000 {
		t.Errorf("fetch address not relocated: %#x", fetchAddr)
	}
	info := w.Retire()
	if len(info.Mem) > 0 && info.Mem[0].Addr < 0x2000 {
		t.Errorf("data address not relocated: %#x", info.Mem[0].Addr)
	}
}

func TestWalkerDeterminism(t *testing.T) {
	b := ir.NewBuilder("bern")
	s := b.Stream(ir.MemStream{Kind: ir.StreamRandom, Footprint: 1 << 12})
	b.Block("body")
	b.Load(s)
	b.Branch("body", ir.Bernoulli(0.5))
	p, err := compiler.Compile(b.MustFinish(), compiler.Options{Machine: isa.Default()})
	if err != nil {
		t.Fatal(err)
	}
	w1 := program.NewWalker(p, 42, 0, 0)
	w2 := program.NewWalker(p, 42, 0, 0)
	for i := 0; i < 1000; i++ {
		i1 := w1.Retire()
		i2 := w2.Retire()
		if i1.Taken != i2.Taken || len(i1.Mem) != len(i2.Mem) {
			t.Fatalf("walkers diverged at step %d", i)
		}
		for j := range i1.Mem {
			if i1.Mem[j] != i2.Mem[j] {
				t.Fatalf("addresses diverged at step %d", i)
			}
		}
	}
	// A different seed must diverge eventually.
	w3 := program.NewWalker(p, 43, 0, 0)
	w4 := program.NewWalker(p, 42, 0, 0)
	same := true
	for i := 0; i < 1000 && same; i++ {
		i3, i4 := w3.Retire(), w4.Retire()
		if i3.Taken != i4.Taken {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical branch streams")
	}
}

func TestWalkerRandomAndChaseBounds(t *testing.T) {
	b := ir.NewBuilder("mix")
	r := b.Stream(ir.MemStream{Kind: ir.StreamRandom, Base: 0x100000, Footprint: 1 << 14})
	c := b.Stream(ir.MemStream{Kind: ir.StreamChase, Base: 0x200000, Footprint: 1 << 14})
	b.Block("body")
	b.Load(r)
	v := b.Load(c)
	b.Store(r, v)
	b.Branch("body", ir.Always())
	p, err := compiler.Compile(b.MustFinish(), compiler.Options{Machine: isa.Default()})
	if err != nil {
		t.Fatal(err)
	}
	w := program.NewWalker(p, 7, 0, 0)
	stores := 0
	for i := 0; i < 3000; i++ {
		info := w.Retire()
		for _, a := range info.Mem {
			switch {
			case a.Addr >= 0x100000 && a.Addr < 0x100000+1<<14:
				if a.Addr%4 != 0 {
					t.Fatalf("random stream address unaligned: %#x", a.Addr)
				}
				if a.Store {
					stores++
				}
			case a.Addr >= 0x200000 && a.Addr < 0x200000+1<<14:
				if a.Addr%64 != 0 {
					t.Fatalf("chase stream address not line aligned: %#x", a.Addr)
				}
			default:
				t.Fatalf("address %#x outside all stream footprints", a.Addr)
			}
		}
	}
	if stores == 0 {
		t.Error("no stores observed")
	}
	if w.Retired == 0 {
		t.Error("retired counter not advancing")
	}
}

func TestProgramValidateCatchesCorruption(t *testing.T) {
	p := loopKernel(t, 4)
	m := isa.Default()
	if err := p.Validate(&m); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	bad := *p
	bad.Blocks = nil
	if err := bad.Validate(&m); err == nil {
		t.Error("empty program accepted")
	}
	bad2 := *p
	blocks := make([]program.Block, len(p.Blocks))
	copy(blocks, p.Blocks)
	blocks[0].Next = 99
	bad2.Blocks = blocks
	if err := bad2.Validate(&m); err == nil {
		t.Error("out-of-range successor accepted")
	}
}
