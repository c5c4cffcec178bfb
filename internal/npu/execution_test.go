package npu

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refInstr is one instruction of a flattened stream tagged with its layer.
type refInstr struct {
	layer int
	in    Instr
}

// refCursor is the reference Execution: a cursor over the flattened,
// layer-tagged stream, rewinding by scanning back over instructions of
// the same layer. The run-walking cursor must agree with it exactly.
type refCursor struct {
	stream []refInstr
	total  int64
	pc     int
	rem    int64
	done   int64
}

// newRefCursor flattens a program's layer list, given block by block in
// execution order.
func newRefCursor(layers [][]Instr) *refCursor {
	r := &refCursor{}
	for layer, block := range layers {
		for _, in := range block {
			r.stream = append(r.stream, refInstr{layer, in})
			r.total += int64(in.Cycles)
		}
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

// kill returns the cycles it discards.
func (r *refCursor) kill() int64 {
	wasted := r.done
	r.done = 0
	r.seek(0)
	return wasted
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

// randomProgram builds a multi-run program and, as its reference, the
// block of every layer in execution order, taken from its own copies
// rather than from the program. Runs repeat their bodies 0 to 64
// times, and a run may reuse an earlier run's body. Bodies mix fresh
// blocks, blocks shared with other layers, zero-length layers and
// single-instruction layers, and may be empty or hold only zero-length
// layers; a block's first or last instruction is often zero-cycle, so
// such instructions sit at body and run edges.
func randomProgram(rng *rand.Rand) (*Program, [][]Instr) {
	p := &Program{Model: "rand", Batch: 1}
	var blocks [][]Instr // each pool block, indexed like spans
	var spans []Span
	type body struct {
		spans []Span
		refs  []int // index into blocks; -1 for a zero-length layer
	}
	var bodies []body
	var layers [][]Instr
	for n := 1 + rng.IntN(5); n > 0; n-- {
		var b body
		if len(bodies) > 0 && rng.IntN(3) == 0 {
			b = bodies[rng.IntN(len(bodies))]
		} else {
			for k := rng.IntN(5); k > 0; k-- {
				switch c := rng.IntN(10); {
				case c < 2:
					b.spans = append(b.spans, Span{Off: int32(rng.IntN(len(p.Instrs) + 1))})
					b.refs = append(b.refs, -1)
				case c < 4 && len(blocks) > 0:
					i := rng.IntN(len(blocks))
					b.spans = append(b.spans, spans[i])
					b.refs = append(b.refs, i)
				default:
					block := make([]Instr, 1+rng.IntN(4)*rng.IntN(2))
					for i := range block {
						block[i] = Instr{Op: Op(rng.IntN(5)), LiveBytes: rng.Int64N(1 << 20)}
						if rng.IntN(4) > 0 {
							block[i].Cycles = int32(1 + rng.IntN(40))
						}
					}
					if rng.IntN(3) == 0 {
						block[0].Cycles = 0
					}
					if rng.IntN(3) == 0 {
						block[len(block)-1].Cycles = 0
					}
					s := Span{Off: int32(len(p.Instrs)), Len: int32(len(block))}
					p.Instrs = append(p.Instrs, block...)
					blocks, spans = append(blocks, block), append(spans, s)
					b.spans = append(b.spans, s)
					b.refs = append(b.refs, len(blocks)-1)
				}
			}
			bodies = append(bodies, b)
		}
		times := 1 + rng.IntN(64)
		if rng.IntN(8) == 0 {
			times = rng.IntN(2)
		}
		p.Runs = append(p.Runs, Run{Body: b.spans, Times: times})
		for range times {
			for _, ref := range b.refs {
				var block []Instr
				if ref >= 0 {
					block = blocks[ref]
				}
				layers = append(layers, block)
				for _, in := range block {
					p.TotalCycles += int64(in.Cycles)
				}
			}
		}
	}
	return p, layers
}

// checkProgramMatchesLayers fails unless p's validation, counts, stream,
// blocks and live-state maximum agree with its reference layer list.
func checkProgramMatchesLayers(t *testing.T, prog int, p *Program, layers [][]Instr) {
	t.Helper()
	var ref []refInstr
	var maxLive int64
	for layer, block := range layers {
		for _, in := range block {
			ref = append(ref, refInstr{layer, in})
			maxLive = max(maxLive, in.LiveBytes)
		}
	}
	// Only a program without instructions is invalid.
	if err := p.Validate(); (err == nil) != (len(ref) > 0) {
		t.Fatalf("prog %d: Validate = %v for a %d-instruction stream", prog, err, len(ref))
	}
	if p.Layers() != len(layers) || p.StreamLen() != len(ref) || p.MaxLiveBytes() != maxLive {
		t.Fatalf("prog %d: layers %d stream %d max live %d, reference %d/%d/%d",
			prog, p.Layers(), p.StreamLen(), p.MaxLiveBytes(), len(layers), len(ref), maxLive)
	}
	i := 0
	for layer, in := range p.Stream() {
		if i >= len(ref) || (refInstr{layer, in}) != ref[i] {
			t.Fatalf("prog %d: stream instruction %d differs from the reference", prog, i)
		}
		i++
	}
	if i != len(ref) {
		t.Fatalf("prog %d: stream ends after %d of %d instructions", prog, i, len(ref))
	}
	next := 0
	for layer, block := range p.Blocks() {
		for next < len(layers) && len(layers[next]) == 0 {
			next++
		}
		if layer != next || !slices.Equal(block, layers[next]) {
			t.Fatalf("prog %d: Blocks yields layer %d, want the next non-empty layer %d", prog, layer, next)
		}
		next++
	}
}

// randomBudget is a small budget that lands inside instructions, or one
// that crosses many layers of a long program.
func randomBudget(rng *rand.Rand, total int64) int64 {
	if rng.IntN(2) == 0 {
		return rng.Int64N(60)
	}
	return rng.Int64N(total/8 + 1)
}

func TestExecutionMatchesFlattenedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 12))
	for prog := 0; prog < 2000; prog++ {
		p, layers := randomProgram(rng)
		checkProgramMatchesLayers(t, prog, p, layers)
		e, r := NewExecution(p), newRefCursor(layers)
		for step := 0; step < 60; step++ {
			op := rng.IntN(10)
			switch {
			case op < 6:
				b := randomBudget(rng, r.total)
				if got, want := e.Advance(b), r.advance(b); got != want {
					t.Fatalf("prog %d step %d: Advance(%d) = %d, reference %d", prog, step, b, got, want)
				}
			case op < 8:
				if got, want := e.KillToLayerStart(), r.killToLayerStart(); got != want {
					t.Fatalf("prog %d step %d: KillToLayerStart = %d, reference %d", prog, step, got, want)
				}
			case op < 9:
				got := e.Executed()
				e.Kill()
				if want := r.kill(); got != want {
					t.Fatalf("prog %d step %d: Kill discards %d, reference %d", prog, step, got, want)
				}
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

// A shared block executes once per layer that references it, and a
// rewind inside the second use of a block stops at that use's start.
func TestSharedBlockExecutesPerSpan(t *testing.T) {
	p := &Program{Model: "shared", Batch: 1}
	p.AppendLayer(Instr{Op: GEMMOp, Cycles: 10, LiveBytes: 1}, Instr{Op: GEMMOp, Cycles: 20, LiveBytes: 2})
	p.AppendLayer()
	p.Runs = append(p.Runs, Run{Body: p.Runs[0].Body[:1], Times: 1})
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
	p.Runs = append(p.Runs, Run{Body: []Span{{Off: 1, Len: 5}}, Times: 2})
	if err := p.Validate(); err == nil {
		t.Error("span past the pool end should fail validation")
	}
}

// A run of empty layers is stepped over whole, however many layers it
// stands for, and still counts in the layer indices after it.
func TestEmptyRunSteppedOverWhole(t *testing.T) {
	p := testProgram(10)
	p.Runs = append(p.Runs, Run{Body: []Span{{}, {Off: 1}}, Times: MaxLayers/2 - 1})
	p.AppendLayer(Instr{Op: GEMMOp, Cycles: 20, LiveBytes: 7})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	last := MaxLayers - 2
	if p.Layers() != last+1 || p.StreamLen() != 2 {
		t.Fatalf("layers %d stream %d, want %d and 2", p.Layers(), p.StreamLen(), last+1)
	}
	var got []int
	for layer := range p.Stream() {
		got = append(got, layer)
	}
	if !slices.Equal(got, []int{0, last}) {
		t.Errorf("stream layers %v, want [0 %d]", got, last)
	}
	e := NewExecution(p)
	if used := e.Advance(15); used != 15 || e.CurrentLayer() != last || e.LiveBytes() != 0 {
		t.Fatalf("used %d, layer %d, live %d; want 15 in layer %d after live 0",
			used, e.CurrentLayer(), e.LiveBytes(), last)
	}
	if w := e.KillToLayerStart(); w != 5 || e.CurrentLayer() != last {
		t.Errorf("rewind wasted %d to layer %d, want 5 to layer %d", w, e.CurrentLayer(), last)
	}
	if used := e.Advance(100); used != 20 || !e.Done() {
		t.Errorf("finish used %d, done %v", used, e.Done())
	}
}

// A run table may not repeat a body a negative number of times or
// describe more layers than the cursor can index.
func TestValidateRejectsBadRuns(t *testing.T) {
	neg := testProgram(10)
	neg.Runs = append(neg.Runs, Run{Body: []Span{{}}, Times: -1})
	if err := neg.Validate(); err == nil {
		t.Error("a negative repeat count should fail validation")
	}
	fits := testProgram(10)
	fits.Runs = append(fits.Runs, Run{Body: []Span{{}}, Times: MaxLayers - 1})
	if err := fits.Validate(); err != nil || fits.Layers() != MaxLayers {
		t.Errorf("%d layers: Validate = %v", fits.Layers(), err)
	}
	over := testProgram(10)
	over.Runs = append(over.Runs, Run{Body: []Span{{}, {}}, Times: MaxLayers/2 + 1})
	if err := over.Validate(); err == nil {
		t.Errorf("%d layers should fail validation", over.Layers())
	}
}

// TestAdvanceSplitExact pins the property the resumable simulator relies
// on when a bound cuts an execution step short: Advance(a) then
// Advance(b) leaves the cursor exactly where Advance(a+b) does.
func TestAdvanceSplitExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 77))
	for prog := 0; prog < 2000; prog++ {
		p, _ := randomProgram(rng)
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
