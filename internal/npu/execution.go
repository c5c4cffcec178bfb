package npu

import "fmt"

// Execution is a resumable cursor over a compiled Program. The multi-task
// simulator advances it by cycle budgets, interrogates it for the next
// preemption boundary (GEMM_OP commit, footnote 2 of the paper), reads the
// checkpointable live state, and resets it when the KILL mechanism discards
// in-flight work.
//
// The cursor walks the program's span table: it holds the in-flight
// layer's span position and the pool index of the in-flight instruction,
// and moves to the next span when a block is exhausted. Everything it
// reports is defined on the flattened stream, so a program whose layers
// share blocks executes exactly as its flattened copy would.
//
// The zero value is not usable; construct with NewExecution.
type Execution struct {
	prog  *Program
	layer int   // span position of the in-flight instruction; len(Spans) once done
	pc    int   // pool index of the in-flight instruction
	end   int   // pool index one past the in-flight layer's block
	rem   int64 // cycles remaining in the in-flight instruction
	done  int64 // cycles executed so far
	live  int64 // LiveBytes of the instruction preceding the cursor in the stream
	// layerDone and layerLive are done and live as the in-flight layer
	// began: the state KillToLayerStart rewinds to.
	layerDone, layerLive int64
}

// NewExecution returns a cursor positioned at the start of prog.
func NewExecution(prog *Program) *Execution {
	e := &Execution{prog: prog}
	e.reset()
	return e
}

func (e *Execution) reset() {
	e.layer, e.pc, e.end = -1, 0, 0
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
			if e.rem = int64(in.Cycles); e.rem > 0 {
				return
			}
			e.live = in.LiveBytes
		}
		e.layer++
		if e.layer >= len(e.prog.Spans) {
			return
		}
		s := e.prog.Spans[e.layer]
		e.pc, e.end = int(s.Off), int(s.Off+s.Len)
		e.layerDone, e.layerLive = e.done, e.live
	}
}

// Program returns the program being executed.
func (e *Execution) Program() *Program { return e.prog }

// Done reports whether the program has fully committed.
func (e *Execution) Done() bool { return e.layer >= len(e.prog.Spans) }

// Executed returns the cycles executed so far.
func (e *Execution) Executed() int64 { return e.done }

// Remaining returns the cycles left until completion.
func (e *Execution) Remaining() int64 { return e.prog.TotalCycles - e.done }

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
			e.settle()
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
	if e.rem == int64(e.prog.Instrs[e.pc].Cycles) {
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
	e.pc = int(e.prog.Spans[e.layer].Off)
	e.settle()
	return wasted
}

// Progress returns the executed fraction in [0,1].
func (e *Execution) Progress() float64 {
	if e.prog.TotalCycles == 0 {
		return 1
	}
	return float64(e.done) / float64(e.prog.TotalCycles)
}

// CurrentLayer returns the layer index of the in-flight instruction, or -1
// once the program has completed.
func (e *Execution) CurrentLayer() int {
	if e.Done() {
		return -1
	}
	return e.layer
}
