package npu

import (
	"fmt"
	"iter"
	"math"
)

// Op is a CISC opcode of the NPU ISA (Section II-B). The performance model
// simulates at committed-instruction granularity: LOAD_TILE/STORE_TILE
// traffic that double-buffering fully overlaps with compute is folded into
// the effective latency of the GEMM_OP/CONV_OP it overlaps with, while
// non-overlappable transfers (per-layer weight preambles, output spills)
// appear as their own instructions.
type Op uint8

const (
	// LoadTile moves activations or weights from DRAM into UBUF or the
	// weight buffer.
	LoadTile Op = iota
	// GEMMOp multiplies a latched weight tile with streamed activations.
	GEMMOp
	// ConvOp is a lowered convolution executed as a GEMM (Section II-B).
	ConvOp
	// VectorOp applies element-wise math on the vector unit.
	VectorOp
	// StoreTile moves output activations from UBUF back to DRAM.
	StoreTile
)

var opNames = [...]string{"LOAD_TILE", "GEMM_OP", "CONV_OP", "VECTOR_OP", "STORE_TILE"}

// String returns the ISA mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Instr is one committed instruction with its effective latency
// contribution under the double-buffered dataflow. It carries no layer
// index: an instruction's layer is the position at which the run table
// executes its block (see Program).
type Instr struct {
	// Op is the ISA opcode.
	Op Op
	// Cycles is the instruction's effective latency: for GEMM_OP and
	// CONV_OP tiles this is max(compute, memory) per Algorithm 1's
	// double-buffering model.
	Cycles int32
	// LiveBytes is the checkpointable on-chip context (output
	// activations resident in UBUF/ACCQ, Section IV-B) immediately
	// after this instruction commits. Preemption via CHECKPOINT at
	// this boundary must persist exactly these bytes.
	LiveBytes int64
}

// Span locates one layer's block in a Program's pool:
// Instrs[Off : Off+Len].
type Span struct {
	Off, Len int32
}

// MaxLayers bounds a program's instantiated layer count: the Execution
// cursor indexes layers with int32.
const MaxLayers = math.MaxInt32

// Run is one stretch of a program: the layers of Body executed Times
// times back to back, so it stands for Times*len(Body) layers. A body
// may be shared by many runs and programs and must not be modified.
type Run struct {
	// Body holds one span per layer of the body, in execution order.
	Body []Span
	// Times is the number of back-to-back repetitions of Body.
	Times int
}

// Layers returns the number of layers the run stands for.
func (r Run) Layers() int { return r.Times * len(r.Body) }

// Program is a compiled instruction stream for one inference task
// instance, together with summary statistics the scheduler and the
// metrics pipeline need. The stream is stored as a pool of distinct
// layer blocks plus a run table; the package documentation gives the
// layout and its invariants.
type Program struct {
	// Model is the workload label the program was compiled from.
	Model string
	// Batch is the inference batch size.
	Batch int
	// InLen and OutLen are the sequence lengths of an RNN instance
	// (zero for CNNs).
	InLen, OutLen int
	// Instrs is the instruction pool: each distinct layer block once,
	// possibly with blocks of other programs that share it.
	Instrs []Instr
	// Runs lists the program's layers, in execution order, as
	// repetitions of bodies of spans into Instrs.
	Runs []Run
	// TotalCycles is the isolated, uninterrupted execution time.
	TotalCycles int64
	// TotalMACs is the arithmetic work represented by the program.
	TotalMACs int64
}

// block returns the instructions a span locates.
func (p *Program) block(s Span) []Instr { return p.Instrs[s.Off : s.Off+s.Len] }

// bodyLen returns the number of instructions one repetition of r runs.
func bodyLen(r Run) int {
	n := 0
	for _, s := range r.Body {
		n += int(s.Len)
	}
	return n
}

// Layers returns the number of instantiated layers.
func (p *Program) Layers() int {
	n := 0
	for _, r := range p.Runs {
		n += r.Layers()
	}
	return n
}

// Blocks iterates the layers that hold instructions, in execution order,
// yielding each one's index and block. A run whose body holds none is
// stepped over whole, however many layers it stands for.
func (p *Program) Blocks() iter.Seq2[int, []Instr] {
	return func(yield func(int, []Instr) bool) {
		layer := 0
		for _, r := range p.Runs {
			if bodyLen(r) == 0 {
				layer += r.Layers()
				continue
			}
			for range r.Times {
				for _, s := range r.Body {
					if s.Len > 0 && !yield(layer, p.block(s)) {
						return
					}
					layer++
				}
			}
		}
	}
}

// Stream iterates the flattened instruction stream in execution order,
// yielding each instruction with the index of its layer.
func (p *Program) Stream() iter.Seq2[int, Instr] {
	return func(yield func(int, Instr) bool) {
		for layer, block := range p.Blocks() {
			for _, in := range block {
				if !yield(layer, in) {
					return
				}
			}
		}
	}
}

// StreamLen returns the number of instructions in the flattened stream.
func (p *Program) StreamLen() int {
	n := 0
	for _, r := range p.Runs {
		n += r.Times * bodyLen(r)
	}
	return n
}

// AppendLayer adds a layer whose block is a copy of block, placed at the
// end of the pool, and adds the block's cycles to TotalCycles. The layer
// joins the last run when that run executes once, and opens a run of its
// own otherwise. Joining a capacity-clipped body, as the compiler's are,
// copies it; any other last body must belong to the last run alone.
func (p *Program) AppendLayer(block ...Instr) {
	s := Span{Off: int32(len(p.Instrs)), Len: int32(len(block))}
	if n := len(p.Runs); n > 0 && p.Runs[n-1].Times == 1 {
		p.Runs[n-1].Body = append(p.Runs[n-1].Body, s)
	} else {
		p.Runs = append(p.Runs, Run{Body: []Span{s}, Times: 1})
	}
	p.Instrs = append(p.Instrs, block...)
	for _, in := range block {
		p.TotalCycles += int64(in.Cycles)
	}
}

// Validate checks program invariants: non-negative repeat counts, at most
// MaxLayers layers, spans inside the pool, positive latencies,
// non-negative live state, and a consistent total.
//
//premalint:ignore testonly a check; compiler's TestCompiledProgramsValidate runs it on every compiled program
func (p *Program) Validate() error {
	layers := 0
	var sum int64
	for i, r := range p.Runs {
		if r.Times < 0 {
			return fmt.Errorf("npu: program %q run %d repeats %d times", p.Model, i, r.Times)
		}
		if len(r.Body) > 0 && r.Times > (MaxLayers-layers)/len(r.Body) {
			return fmt.Errorf("npu: program %q has more than %d layers", p.Model, MaxLayers)
		}
		layers += r.Layers()
		var body int64
		for j, s := range r.Body {
			if s.Off < 0 || s.Len < 0 || int(s.Off)+int(s.Len) > len(p.Instrs) {
				return fmt.Errorf("npu: program %q run %d body layer %d span %+v outside the %d-instruction pool",
					p.Model, i, j, s, len(p.Instrs))
			}
			for _, in := range p.block(s) {
				body += int64(in.Cycles)
			}
		}
		sum += body * int64(r.Times)
	}
	if p.StreamLen() == 0 {
		return fmt.Errorf("npu: program %q has no instructions", p.Model)
	}
	for i, in := range p.Instrs {
		if in.Cycles < 0 {
			return fmt.Errorf("npu: program %q pool instr %d has negative cycles", p.Model, i)
		}
		if in.LiveBytes < 0 {
			return fmt.Errorf("npu: program %q pool instr %d has negative live bytes", p.Model, i)
		}
	}
	if sum != p.TotalCycles {
		return fmt.Errorf("npu: program %q total %d != instruction sum %d",
			p.Model, p.TotalCycles, sum)
	}
	return nil
}

// MaxLiveBytes returns the largest checkpointable context across all
// preemption points of the program. It walks each executed body once,
// not the pool: a shared pool can hold blocks the program never runs.
func (p *Program) MaxLiveBytes() int64 {
	var max int64
	for _, r := range p.Runs {
		if r.Times == 0 {
			continue
		}
		for _, s := range r.Body {
			for _, in := range p.block(s) {
				if in.LiveBytes > max {
					max = in.LiveBytes
				}
			}
		}
	}
	return max
}
