package npu

import (
	"fmt"
	"iter"
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
// index: an instruction's layer is the position of the span it is
// executed through (see Program).
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

// Span locates one instantiated layer's block in a Program's pool:
// Instrs[Off : Off+Len].
type Span struct {
	Off, Len int32
}

// Program is a compiled instruction stream for one inference task
// instance, together with summary statistics the scheduler and the
// metrics pipeline need. The stream is stored as a pool of distinct
// layer blocks plus a span table; the package documentation gives the
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
	// Spans locates each instantiated layer's block in Instrs.
	Spans []Span
	// TotalCycles is the isolated, uninterrupted execution time.
	TotalCycles int64
	// TotalMACs is the arithmetic work represented by the program.
	TotalMACs int64
}

// Layers returns the number of instantiated layers.
func (p *Program) Layers() int { return len(p.Spans) }

// Block returns the instructions of one instantiated layer.
func (p *Program) Block(layer int) []Instr {
	s := p.Spans[layer]
	return p.Instrs[s.Off : s.Off+s.Len]
}

// Stream iterates the flattened instruction stream in execution order,
// yielding each instruction with the index of its layer.
func (p *Program) Stream() iter.Seq2[int, Instr] {
	return func(yield func(int, Instr) bool) {
		for layer := range p.Spans {
			for _, in := range p.Block(layer) {
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
	for _, s := range p.Spans {
		n += int(s.Len)
	}
	return n
}

// AppendLayer adds a layer whose block is a copy of block, placed at the
// end of the pool, and adds the block's cycles to TotalCycles.
func (p *Program) AppendLayer(block ...Instr) {
	p.Spans = append(p.Spans, Span{Off: int32(len(p.Instrs)), Len: int32(len(block))})
	p.Instrs = append(p.Instrs, block...)
	for _, in := range block {
		p.TotalCycles += int64(in.Cycles)
	}
}

// Validate checks program invariants: spans inside the pool, positive
// latencies, non-negative live state, and a consistent total.
func (p *Program) Validate() error {
	for i, s := range p.Spans {
		if s.Off < 0 || s.Len < 0 || int(s.Off)+int(s.Len) > len(p.Instrs) {
			return fmt.Errorf("npu: program %q layer %d span %+v outside the %d-instruction pool",
				p.Model, i, s, len(p.Instrs))
		}
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
	var sum int64
	for _, in := range p.Stream() {
		sum += int64(in.Cycles)
	}
	if sum != p.TotalCycles {
		return fmt.Errorf("npu: program %q total %d != instruction sum %d",
			p.Model, p.TotalCycles, sum)
	}
	return nil
}

// MaxLiveBytes returns the largest checkpointable context across all
// preemption points of the program. It walks the spans, not the pool: a
// shared pool can hold blocks the program never runs.
func (p *Program) MaxLiveBytes() int64 {
	var max int64
	for _, in := range p.Stream() {
		if in.LiveBytes > max {
			max = in.LiveBytes
		}
	}
	return max
}
