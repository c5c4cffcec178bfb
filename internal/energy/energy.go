// Package energy quantifies the Section VI-F energy argument: PREMA's
// own hardware (the context table and the scheduling logic) is
// negligible, so system energy is dominated by execution time and data
// movement — meaning throughput improvements translate directly into
// energy-efficiency improvements.
//
// The model is a standard event-energy accounting over the committed
// instruction stream: per-MAC compute energy, per-byte SRAM and DRAM
// access energy, and a static (leakage + clock) power integrated over
// occupancy. Coefficients are representative 28-32nm-class values of the
// accelerator literature; as everywhere in this reproduction, relative
// comparisons are the point, not absolute joules.
package energy

import (
	"fmt"

	"repro/internal/npu"
	"repro/internal/preempt"
	"repro/internal/sched"
)

// Model holds the energy coefficients.
type Model struct {
	// PJPerMAC is the 16-bit multiply-accumulate energy (~0.5-1 pJ in
	// 28nm, including local register movement).
	PJPerMAC float64
	// PJPerSRAMByte is on-chip buffer access energy per byte.
	PJPerSRAMByte float64
	// PJPerDRAMByte is off-chip access energy per byte (~100x SRAM).
	PJPerDRAMByte float64
	// StaticWatts is leakage plus always-on clocking power.
	StaticWatts float64
}

// Default returns representative coefficients.
func Default() Model {
	return Model{
		PJPerMAC:      0.8,
		PJPerSRAMByte: 1.2,
		PJPerDRAMByte: 120,
		StaticWatts:   8,
	}
}

// Validate checks the coefficients.
//
//premalint:ignore testonly a check; energy's TestDefaultValidates runs it on Default and broken coefficients
func (m Model) Validate() error {
	if m.PJPerMAC <= 0 || m.PJPerSRAMByte <= 0 || m.PJPerDRAMByte <= 0 {
		return fmt.Errorf("energy: non-positive per-event coefficients")
	}
	if m.StaticWatts < 0 {
		return fmt.Errorf("energy: negative static power")
	}
	if m.PJPerDRAMByte <= m.PJPerSRAMByte {
		return fmt.Errorf("energy: DRAM access must cost more than SRAM")
	}
	return nil
}

// Breakdown is the per-task or per-run energy decomposition in joules.
type Breakdown struct {
	ComputeJ    float64
	SRAMJ       float64
	DRAMJ       float64
	StaticJ     float64
	CheckpointJ float64
	WastedJ     float64
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.ComputeJ + b.SRAMJ + b.DRAMJ + b.StaticJ + b.CheckpointJ + b.WastedJ
}

const pj = 1e-12

// Program estimates the energy of one isolated inference: all MACs, all
// weight and activation traffic, and static power over the program's
// runtime.
func (m Model) Program(cfg npu.Config, p *npu.Program) Breakdown {
	var b Breakdown
	b.ComputeJ = float64(p.TotalMACs) * m.PJPerMAC * pj
	// Data movement: approximate DRAM traffic as the bandwidth-bound
	// fraction of each instruction's effective latency (the simulator
	// folded transfer time into max(compute, memory)); a simple and
	// conservative proxy is bytes-per-cycle times the memory-bound
	// share. We instead charge the architectural traffic directly:
	// weights once, activations in and out per layer.
	var bytes int64
	for _, in := range p.Stream() {
		switch in.Op {
		case npu.LoadTile, npu.StoreTile:
			bytes += int64(float64(in.Cycles) * cfg.BytesPerCycle())
		}
	}
	// Streaming traffic of GEMM tiles (activations into the array) is
	// SRAM-side; charge it per MAC operand pair at 2 bytes each.
	b.SRAMJ = float64(p.TotalMACs) * 2 * 2 * m.PJPerSRAMByte * pj / float64(cfg.SH)
	b.DRAMJ = float64(bytes) * m.PJPerDRAMByte * pj
	b.StaticJ = m.StaticWatts * cfg.Seconds(p.TotalCycles)
	return b
}

// Run estimates the energy of a completed multi-tenant run: static power
// over the makespan, each task's compute/data energy, plus the
// preemption-specific costs — checkpoint/restore DMA traffic and the
// re-executed work KILL discarded.
func (m Model) Run(cfg npu.Config, tasks []*sched.Task, events []preempt.Cost, makespan int64) Breakdown {
	var b Breakdown
	for _, t := range tasks {
		prog := t.Exec.Program()
		tb := m.Program(cfg, prog)
		b.ComputeJ += tb.ComputeJ
		b.SRAMJ += tb.SRAMJ
		b.DRAMJ += tb.DRAMJ
		// Wasted work re-burns compute energy proportionally.
		if t.WastedCycles > 0 && prog.TotalCycles > 0 {
			frac := float64(t.WastedCycles) / float64(prog.TotalCycles)
			b.WastedJ += tb.ComputeJ * frac
		}
	}
	for _, ev := range events {
		// Checkpoint save + later restore both traverse DRAM.
		b.CheckpointJ += float64(2*ev.SavedBytes) * m.PJPerDRAMByte * pj
	}
	b.StaticJ = m.StaticWatts * cfg.Seconds(makespan)
	return b
}
