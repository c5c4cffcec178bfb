package npu

import (
	"fmt"
	"math"
)

// Execution is a resumable cursor over a compiled Program. The multi-task
// simulator advances it by cycle budgets, interrogates it for the next
// preemption boundary (GEMM_OP commit, footnote 2 of the paper), reads the
// checkpointable live state, and resets it when the KILL mechanism discards
// in-flight work.
//
// The cursor walks the program's run table: it holds the in-flight run,
// the in-flight layer's position among that run's repetitions of its
// body, and the pool index of the in-flight instruction. It moves to the
// next span of the body when a block is exhausted, and to the next run
// when the body's last repetition is. Everything it reports is defined
// on the flattened stream, so a program whose layers share blocks and
// bodies executes exactly as its flattened copy would.
//
// A cursor runs at a speed factor: on an NPU that takes factor× the
// nominal service time, every instruction keeps its commit boundary and
// only its latency is scaled, rounded up so no instruction loses work to
// rounding. The program itself is never modified.
//
// The zero value is not usable: Start positions a cursor in place (a
// scheduler entry holds its cursor by value), and NewExecution and
// NewScaledExecution return a new one.
type Execution struct {
	prog *Program
	run  int32 // run of the in-flight instruction; len(Runs) once done
	step int32 // the in-flight layer's position among the run's Layers()
	pc   int32 // pool index of the in-flight instruction
	end  int32 // pool index one past the in-flight layer's block
	rem  int64 // cycles remaining in the in-flight instruction
	done int64 // cycles executed so far
	live int64 // LiveBytes of the instruction preceding the cursor in the stream
	// layerDone and layerLive are done and live as the in-flight layer
	// began: the state KillToLayerStart rewinds to.
	layerDone, layerLive int64
	// factor is the service-time factor every instruction latency is
	// scaled by (1 = nominal), and total the program's cycles at it.
	factor float64
	total  int64
}

// NewExecution returns a cursor positioned at the start of prog, running
// at nominal speed.
func NewExecution(prog *Program) *Execution {
	e := new(Execution)
	e.Start(prog, 1)
	return e
}

// MaxSpeedFactor bounds the service-time factor a backend runs at: a
// slow tier's derate, a chaos slowdown, and a slowdown stacked on a
// tier's derate are each at most this, and every surface that takes a
// factor refuses one past it. A scaled latency is held to an Instr's
// int32 range, which the zoo's longest instruction (100,352 cycles,
// CNN-VN at batch 16) leaves above about 21,400×.
const MaxSpeedFactor = 1000

// NewScaledExecution returns a cursor positioned at the start of prog on
// an NPU that takes factor× the nominal service time (see Start).
func NewScaledExecution(prog *Program, factor float64) *Execution {
	e := new(Execution)
	e.Start(prog, factor)
	return e
}

// Start positions e, in place, at the start of prog on an NPU that takes
// factor× the nominal service time: each instruction runs
// ceil(Cycles × factor) cycles. Whatever e held before is discarded.
// factor must lie in (0, MaxSpeedFactor].
func (e *Execution) Start(prog *Program, factor float64) {
	if !(factor > 0 && factor <= MaxSpeedFactor) {
		panic(fmt.Sprintf("npu: speed factor %v outside (0, %d]", factor, MaxSpeedFactor))
	}
	*e = Execution{prog: prog, factor: factor, total: prog.TotalCycles}
	if factor != 1 {
		e.total = 0
		for _, r := range prog.Runs {
			var body int64
			for _, s := range r.Body {
				for _, in := range prog.block(s) {
					body += e.cycles(in.Cycles)
				}
			}
			e.total += body * int64(r.Times)
		}
	}
	e.reset()
}

// cycles returns an instruction's latency at the cursor's speed. The
// scaled latency is held to an Instr's int32 range, as a compiled one is.
func (e *Execution) cycles(c int32) int64 {
	if e.factor == 1 {
		return int64(c)
	}
	return int64(int32(math.Ceil(float64(c) * e.factor)))
}

func (e *Execution) reset() {
	e.run, e.step, e.pc, e.end = 0, -1, 0, 0
	e.done, e.live = 0, 0
	e.settle()
}

// settle moves the cursor past zero-latency instructions and exhausted
// layers so it always rests on work (or the end of the program). The
// cursor's pc must point at an instruction nothing of which has executed.
func (e *Execution) settle() {
	for {
		for ; e.pc < e.end; e.pc++ {
			in := &e.prog.Instrs[e.pc]
			if e.rem = e.cycles(in.Cycles); e.rem > 0 {
				return
			}
			e.live = in.LiveBytes
		}
		if !e.nextLayer() {
			return
		}
		e.layerDone, e.layerLive = e.done, e.live
	}
}

// nextLayer moves the cursor onto the next layer's block and reports
// whether there was one. A run whose body holds no instruction is
// stepped over whole.
func (e *Execution) nextLayer() bool {
	runs := e.prog.Runs
	for e.step++; int(e.run) < len(runs); e.run, e.step = e.run+1, 0 {
		r := runs[e.run]
		if int(e.step) >= r.Layers() || e.step == 0 && bodyLen(r) == 0 {
			continue
		}
		s := r.Body[int(e.step)%len(r.Body)]
		e.pc, e.end = s.Off, s.Off+s.Len
		return true
	}
	return false
}

// nextCycles answers the latency, at the cursor's speed, of the
// instruction at pc if it lies in the in-flight block, and 0 otherwise.
func (e *Execution) nextCycles() int64 {
	if e.pc < e.end {
		return e.cycles(e.prog.Instrs[e.pc].Cycles)
	}
	return 0
}

// Program returns the program being executed.
func (e *Execution) Program() *Program { return e.prog }

// Done reports whether the program has fully committed.
func (e *Execution) Done() bool { return int(e.run) >= len(e.prog.Runs) }

// Executed returns the cycles executed so far.
func (e *Execution) Executed() int64 { return e.done }

// TotalCycles returns the program's isolated, uninterrupted execution
// time at the cursor's speed: Program().TotalCycles at nominal speed.
func (e *Execution) TotalCycles() int64 { return e.total }

// Advance executes up to budget cycles and returns the cycles actually
// consumed (less than budget only when the program completes first). It
// may stop mid-instruction; scheduling-quantum expiry does not itself
// force a preemption boundary.
func (e *Execution) Advance(budget int64) int64 {
	if budget < 0 {
		panic(fmt.Sprintf("npu: negative advance budget %d", budget))
	}
	var used int64
	for budget > 0 && !e.Done() {
		step := e.rem
		if step > budget {
			step = budget
		}
		e.rem -= step
		e.done += step
		used += step
		budget -= step
		if e.rem == 0 {
			e.live = e.prog.Instrs[e.pc].LiveBytes
			e.pc++
			// Work in the same block is the common next step: rest on
			// it without settle's walk.
			if c := e.nextCycles(); c > 0 {
				e.rem = c
			} else {
				e.settle()
			}
		}
	}
	return used
}

// CyclesToBoundary returns the cycles needed to finish the in-flight
// instruction — the earliest point at which a CHECKPOINT preemption can be
// serviced (the trap routine runs after the current GEMM_OP commits,
// Section IV-C). Zero when the cursor already rests on a boundary or the
// program is done.
func (e *Execution) CyclesToBoundary() int64 {
	if e.Done() {
		return 0
	}
	if e.rem == e.cycles(e.prog.Instrs[e.pc].Cycles) {
		// Nothing of the in-flight instruction has executed yet: the
		// cursor is exactly on a commit boundary.
		return 0
	}
	return e.rem
}

// LiveBytes returns the checkpointable on-chip context at the last
// committed instruction boundary. Callers must advance to a boundary
// (CyclesToBoundary() == 0) before checkpointing; LiveBytes tolerates
// mid-instruction cursors by reporting the previously committed state,
// which may belong to an earlier layer.
func (e *Execution) LiveBytes() int64 { return e.live }

// Kill discards all progress: the KILL preemption mechanism terminates the
// task immediately without checkpointing, and the inference later restarts
// from scratch (Section IV-C).
func (e *Execution) Kill() { e.reset() }

// KillToLayerStart discards only the current layer's in-flight progress,
// rewinding the cursor to the first instruction of the layer being
// executed. This models the milder restart granularity the paper's
// footnote 2 permits — preemption points on tile boundaries with
// re-execution from the last architecturally complete layer — and returns
// the cycles of work discarded. A completed program is left untouched.
func (e *Execution) KillToLayerStart() (wasted int64) {
	if e.Done() {
		return 0
	}
	wasted = e.done - e.layerDone
	e.done, e.live = e.layerDone, e.layerLive
	r := e.prog.Runs[e.run]
	e.pc = r.Body[int(e.step)%len(r.Body)].Off
	e.settle()
	return wasted
}
