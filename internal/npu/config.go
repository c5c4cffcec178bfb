// Package npu models the baseline neural processing unit of Section II-B:
// a Google-TPU-style systolic-array accelerator with a weight-stationary
// dataflow, a unified activation buffer (UBUF), an accumulator queue
// (ACCQ), and a flat-bandwidth memory system (Table I).
//
// The package owns the machine configuration, the CISC instruction stream
// representation produced by internal/compiler, and the Execution cursor
// that the multi-task simulator advances, preempts, checkpoints and
// resumes.
//
// A Program stores its instruction stream as a pool plus a run table:
// Instrs holds layer blocks, and Runs lists the program's layers in
// execution order as {Body, Times} pairs, each a body of {Off, Len}
// spans naming the slices of the pool its layers run, repeated Times
// times back to back. Every unrolled timestep of an RNN cell is one
// repetition of one body, so a program costs its run table, a few runs
// whatever its sequence lengths, plus bodies and a pool it may share:
// internal/compiler resolves each body once per (model, batch) and gives
// all programs of that pair the same body slices and prefixes of one
// append-only pool, so a pool can hold blocks that a program never runs.
// The flattened stream — every run's body Times times, each span's block
// in turn, walked by Program.Stream — is the program's meaning:
// Execution, TotalCycles, MaxLiveBytes, the isa encoding and every
// consumer are defined on it, so sharing blocks and bodies changes
// memory, never behaviour. Invariants:
//
//   - every span lies inside the pool; a layer without instructions has
//     a zero-length span;
//   - every run repeats its body zero or more times, and a program has
//     at most MaxLayers layers;
//   - a layer's index is its position in the flattened run table (an
//     Instr carries none);
//   - TotalCycles is the sum of the flattened stream's cycles;
//   - a program, its bodies, and its pool up to the program's length,
//     are immutable once built, so every execution shares them; a slowed
//     NPU scales each instruction's latency in the Execution, never in
//     the program.
package npu

import (
	"fmt"
	"time"
)

// Config captures the NPU configuration of Table I plus the secondary
// parameters the simulator needs (vector-unit width, checkpoint DMA
// efficiency).
type Config struct {
	// SW and SH are the systolic array width and height in PEs
	// (weight tile is SW x SH; Figure 3).
	SW, SH int
	// ACC is the accumulator queue depth: the number of input-activation
	// columns streamed per GEMM_OP.
	ACC int
	// FreqHz is the PE clock (700 MHz in Table I).
	FreqHz float64
	// UBUFBytes is the unified activation buffer capacity (8 MB).
	UBUFBytes int64
	// WBUFBytes is the weight buffer capacity (4 MB).
	WBUFBytes int64
	// MemChannels is the number of DRAM channels (8).
	MemChannels int
	// MemBWBytesPerSec is the aggregate off-chip bandwidth (358 GB/s).
	MemBWBytesPerSec float64
	// MemLatencyCycles is the DRAM access latency (100 cycles).
	MemLatencyCycles int64
	// VectorLanes is the element-wise vector unit width used by
	// VECTOR_OP (activations, pooling, depthwise convolutions).
	VectorLanes int
	// CheckpointBWFraction derates DMA bandwidth during context
	// checkpointing (simultaneous SRAM reads and DRAM writes share the
	// on-chip interconnect); calibrated so a full-UBUF checkpoint costs
	// several tens of microseconds, as reported in Section IV-D.
	CheckpointBWFraction float64
}

// DefaultConfig returns the Table I configuration.
func DefaultConfig() Config {
	return Config{
		SW:                   128,
		SH:                   128,
		ACC:                  2048,
		FreqHz:               700e6,
		UBUFBytes:            8 << 20,
		WBUFBytes:            4 << 20,
		MemChannels:          8,
		MemBWBytesPerSec:     358e9,
		MemLatencyCycles:     100,
		VectorLanes:          128,
		CheckpointBWFraction: 0.5,
	}
}

// Validate checks the configuration for usability.
func (c Config) Validate() error {
	switch {
	case c.SW <= 0 || c.SH <= 0:
		return fmt.Errorf("npu: non-positive systolic array dims %dx%d", c.SW, c.SH)
	case c.ACC <= 0:
		return fmt.Errorf("npu: non-positive accumulator depth %d", c.ACC)
	case c.FreqHz <= 0:
		return fmt.Errorf("npu: non-positive frequency %v", c.FreqHz)
	case c.UBUFBytes <= 0 || c.WBUFBytes <= 0:
		return fmt.Errorf("npu: non-positive buffer sizes")
	case c.MemBWBytesPerSec <= 0:
		return fmt.Errorf("npu: non-positive memory bandwidth")
	case c.MemLatencyCycles < 0:
		return fmt.Errorf("npu: negative memory latency")
	case c.VectorLanes <= 0:
		return fmt.Errorf("npu: non-positive vector lanes")
	case c.CheckpointBWFraction <= 0 || c.CheckpointBWFraction > 1:
		return fmt.Errorf("npu: checkpoint bandwidth fraction %v outside (0,1]",
			c.CheckpointBWFraction)
	}
	return nil
}

// BytesPerCycle is the off-chip bandwidth expressed per PE clock.
func (c Config) BytesPerCycle() float64 {
	return c.MemBWBytesPerSec / c.FreqHz
}

// MemCycles returns the cycles needed to move the given bytes at full
// DMA bandwidth (excluding the fixed access latency).
func (c Config) MemCycles(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	cycles := float64(bytes) / c.BytesPerCycle()
	return int64(cycles + 0.999999)
}

// CheckpointCycles returns the preemption latency, in cycles, of
// checkpointing the given live context bytes: a DMA burst at derated
// bandwidth plus one memory access latency (Section IV-C, CHECKPOINT).
func (c Config) CheckpointCycles(liveBytes int64) int64 {
	if liveBytes <= 0 {
		return 0
	}
	cycles := float64(liveBytes) / (c.BytesPerCycle() * c.CheckpointBWFraction)
	return int64(cycles+0.999999) + c.MemLatencyCycles
}

// RestoreCycles returns the cycles to restore a checkpointed context on
// resume; symmetric with CheckpointCycles.
func (c Config) RestoreCycles(liveBytes int64) int64 {
	return c.CheckpointCycles(liveBytes)
}

// Seconds converts a cycle count to seconds.
func (c Config) Seconds(cycles int64) float64 {
	return float64(cycles) / c.FreqHz
}

// Micros converts a cycle count to microseconds.
func (c Config) Micros(cycles int64) float64 {
	return c.Seconds(cycles) * 1e6
}

// Millis converts a cycle count to milliseconds.
func (c Config) Millis(cycles int64) float64 {
	return c.Seconds(cycles) * 1e3
}

// Cycles converts a wall-clock duration into PE clock cycles.
func (c Config) Cycles(d time.Duration) int64 {
	return int64(d.Seconds() * c.FreqHz)
}

// PeakMACsPerSec is the array's peak MAC throughput (one 16-bit MAC per PE
// per cycle, Section II-B).
func (c Config) PeakMACsPerSec() float64 {
	return float64(c.SW) * float64(c.SH) * c.FreqHz
}
