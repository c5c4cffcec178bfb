package npu

import (
	"math/rand/v2"
	"testing"
)

// refInstr is one instruction of a flattened stream tagged with its layer.
type refInstr struct {
	layer int
	in    Instr
}

// refCursor is the reference Execution: a cursor over the flattened,
// layer-tagged stream, rewinding by scanning back over instructions of
// the same layer. The span-walking cursor must agree with it exactly.
type refCursor struct {
	stream []refInstr
	total  int64
	pc     int
	rem    int64
	done   int64
}

func newRefCursor(p *Program) *refCursor {
	r := &refCursor{total: p.TotalCycles}
	for layer, in := range p.Stream() {
		r.stream = append(r.stream, refInstr{layer, in})
	}
	r.seek(0)
	return r
}

// seek positions the cursor on instruction pc with nothing of it run,
// then skips zero-latency instructions.
func (r *refCursor) seek(pc int) {
	for r.pc = pc; r.pc < len(r.stream); r.pc++ {
		if r.rem = int64(r.stream[r.pc].in.Cycles); r.rem > 0 {
			return
		}
	}
}

func (r *refCursor) isDone() bool { return r.pc >= len(r.stream) }

func (r *refCursor) advance(budget int64) int64 {
	var used int64
	for budget > 0 && !r.isDone() {
		step := min(r.rem, budget)
		r.rem -= step
		r.done += step
		used += step
		budget -= step
		if r.rem == 0 {
			r.seek(r.pc + 1)
		}
	}
	return used
}

func (r *refCursor) kill() {
	r.done = 0
	r.seek(0)
}

func (r *refCursor) killToLayerStart() int64 {
	if r.isDone() {
		return 0
	}
	start := r.pc
	for start > 0 && r.stream[start-1].layer == r.stream[r.pc].layer {
		start--
	}
	var wasted int64
	for i := start; i < r.pc; i++ {
		wasted += int64(r.stream[i].in.Cycles)
	}
	wasted += int64(r.stream[r.pc].in.Cycles) - r.rem
	r.done -= wasted
	r.seek(start)
	return wasted
}

func (r *refCursor) cyclesToBoundary() int64 {
	if r.isDone() || r.rem == int64(r.stream[r.pc].in.Cycles) {
		return 0
	}
	return r.rem
}

func (r *refCursor) liveBytes() int64 {
	if r.pc == 0 {
		return 0
	}
	return r.stream[r.pc-1].in.LiveBytes
}

func (r *refCursor) currentLayer() int {
	if r.isDone() {
		return -1
	}
	return r.stream[r.pc].layer
}

// randomProgram builds a program whose layers mix fresh blocks, reused
// blocks, zero-length layers, single-instruction layers and zero-cycle
// instructions.
func randomProgram(rng *rand.Rand) *Program {
	p := &Program{Model: "rand", Batch: 1}
	for n := rng.IntN(12); n > 0; n-- {
		switch k := rng.IntN(10); {
		case k < 2:
			p.AppendLayer() // zero-length layer
		case k < 5 && len(p.Spans) > 0:
			s := p.Spans[rng.IntN(len(p.Spans))]
			p.Spans = append(p.Spans, s) // shared block
			for _, in := range p.Instrs[s.Off : s.Off+s.Len] {
				p.TotalCycles += int64(in.Cycles)
			}
		default:
			block := make([]Instr, 1+rng.IntN(4)*rng.IntN(2))
			for i := range block {
				block[i] = Instr{Op: Op(rng.IntN(5)), LiveBytes: rng.Int64N(1 << 20)}
				if rng.IntN(4) > 0 {
					block[i].Cycles = int32(1 + rng.IntN(40))
				}
			}
			p.AppendLayer(block...)
		}
	}
	return p
}

func TestExecutionMatchesFlattenedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 12))
	for prog := 0; prog < 2000; prog++ {
		p := randomProgram(rng)
		e, r := NewExecution(p), newRefCursor(p)
		for step := 0; step < 60; step++ {
			op := rng.IntN(10)
			switch {
			case op < 6:
				b := rng.Int64N(60)
				if got, want := e.Advance(b), r.advance(b); got != want {
					t.Fatalf("prog %d step %d: Advance(%d) = %d, reference %d", prog, step, b, got, want)
				}
			case op < 8:
				if got, want := e.KillToLayerStart(), r.killToLayerStart(); got != want {
					t.Fatalf("prog %d step %d: KillToLayerStart = %d, reference %d", prog, step, got, want)
				}
			case op < 9:
				e.Kill()
				r.kill()
			default:
				if b := e.CyclesToBoundary(); b > 0 {
					e.Advance(b)
					r.advance(b)
				}
			}
			if e.Done() != r.isDone() || e.Executed() != r.done ||
				e.Remaining() != r.total-r.done ||
				e.CyclesToBoundary() != r.cyclesToBoundary() ||
				e.LiveBytes() != r.liveBytes() ||
				e.CurrentLayer() != r.currentLayer() {
				t.Fatalf("prog %d step %d: cursor (done=%v exec=%d rem=%d bound=%d live=%d layer=%d) "+
					"!= reference (done=%v exec=%d rem=%d bound=%d live=%d layer=%d)",
					prog, step,
					e.Done(), e.Executed(), e.Remaining(), e.CyclesToBoundary(), e.LiveBytes(), e.CurrentLayer(),
					r.isDone(), r.done, r.total-r.done, r.cyclesToBoundary(), r.liveBytes(), r.currentLayer())
			}
		}
	}
}

// A shared block executes once per span that references it, and a
// rewind inside the second use of a block stops at that use's start.
func TestSharedBlockExecutesPerSpan(t *testing.T) {
	p := &Program{Model: "shared", Batch: 1}
	p.AppendLayer(Instr{Op: GEMMOp, Cycles: 10, LiveBytes: 1}, Instr{Op: GEMMOp, Cycles: 20, LiveBytes: 2})
	p.AppendLayer()
	p.Spans = append(p.Spans, p.Spans[0])
	p.TotalCycles *= 2
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Layers() != 3 || p.StreamLen() != 4 || len(p.Instrs) != 2 {
		t.Fatalf("layers=%d stream=%d pool=%d, want 3/4/2", p.Layers(), p.StreamLen(), len(p.Instrs))
	}
	e := NewExecution(p)
	e.Advance(35) // 5 cycles into the second use of the block
	if e.CurrentLayer() != 2 || e.LiveBytes() != 2 {
		t.Fatalf("layer %d live %d, want layer 2 and the first use's final live bytes",
			e.CurrentLayer(), e.LiveBytes())
	}
	if w := e.KillToLayerStart(); w != 5 || e.Executed() != 30 {
		t.Fatalf("rewind wasted %d (executed %d), want 5 (30)", w, e.Executed())
	}
	if used := e.Advance(100); used != 30 || !e.Done() {
		t.Fatalf("re-execution used %d, want 30", used)
	}
}

func TestValidateRejectsSpanOutsidePool(t *testing.T) {
	p := testProgram(10, 20)
	p.Spans = append(p.Spans, Span{Off: 1, Len: 5})
	if err := p.Validate(); err == nil {
		t.Error("span past the pool end should fail validation")
	}
}

// TestAdvanceSplitExact pins the property the resumable simulator relies
// on when a bound cuts an execution step short: Advance(a) then
// Advance(b) leaves the cursor exactly where Advance(a+b) does.
func TestAdvanceSplitExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 77))
	for prog := 0; prog < 2000; prog++ {
		p := randomProgram(rng)
		whole, split := NewExecution(p), NewExecution(p)
		for step := 0; step < 20; step++ {
			a, b := rng.Int64N(60), rng.Int64N(60)
			used := whole.Advance(a + b)
			if got := split.Advance(a) + split.Advance(b); got != used || *split != *whole {
				t.Fatalf("prog %d step %d: Advance(%d)+Advance(%d) used %d, cursor %+v; Advance(%d) used %d, cursor %+v",
					prog, step, a, b, got, *split, a+b, used, *whole)
			}
		}
	}
}
