// Package ckptmem implements the checkpoint storage management of
// Section VI-G: checkpointed context states of preempted tasks live in
// the NPU's local DRAM, which is large enough for tens of contexts; when
// co-location pressure oversubscribes it, the runtime proactively
// migrates overflowing contexts to CPU memory over the host interconnect
// (the approach of Rhu et al.'s vDNN, which the paper adopts), paying a
// migration latency on the way out and back.
//
// The manager is a deterministic accounting structure the simulator can
// consult: Save reserves NPU memory (possibly evicting the
// least-recently-saved contexts to host memory), Restore releases it and
// reports the extra latency if the context had been spilled.
package ckptmem

import (
	"fmt"
	"sort"
)

// Config sizes the memory hierarchy.
type Config struct {
	// NPUMemBytes is the accelerator-local DRAM available for
	// checkpointed contexts (GBs in Section VI-G; configurable down to
	// force spilling in experiments).
	NPUMemBytes int64
	// HostBWBytesPerCycle is the NPU-to-CPU interconnect bandwidth in
	// bytes per NPU clock (PCIe-class: ~16-32 GB/s, i.e. an order of
	// magnitude below HBM).
	HostBWBytesPerCycle float64
	// HostLatencyCycles is the fixed host-transfer setup latency.
	HostLatencyCycles int64
}

// DefaultConfig returns a 4 GB local pool over a PCIe-class link at the
// Table I clock (700 MHz): 25 GB/s ~ 36 bytes/cycle.
func DefaultConfig() Config {
	return Config{
		NPUMemBytes:         4 << 30,
		HostBWBytesPerCycle: 36,
		HostLatencyCycles:   2000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.NPUMemBytes <= 0 {
		return fmt.Errorf("ckptmem: non-positive NPU memory")
	}
	if c.HostBWBytesPerCycle <= 0 {
		return fmt.Errorf("ckptmem: non-positive host bandwidth")
	}
	if c.HostLatencyCycles < 0 {
		return fmt.Errorf("ckptmem: negative host latency")
	}
	return nil
}

// context is one resident checkpointed state.
type context struct {
	task    int
	bytes   int64
	savedAt int64
	spilled bool
}

// Manager tracks checkpointed contexts across NPU and host memory.
type Manager struct {
	cfg  Config
	used int64 // NPU-resident bytes
	ctxs map[int]*context
}

// New builds a Manager.
func New(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg, ctxs: make(map[int]*context)}, nil
}

// Clone returns an independent copy of the manager's accounting state, so
// a projected run can save and restore contexts without disturbing the
// live one.
func (m *Manager) Clone() *Manager {
	c := &Manager{cfg: m.cfg, used: m.used, ctxs: make(map[int]*context, len(m.ctxs))}
	for task, ctx := range m.ctxs {
		cp := *ctx
		c.ctxs[task] = &cp
	}
	return c
}

// NPUResidentBytes returns the bytes currently held in NPU memory.
func (m *Manager) NPUResidentBytes() int64 { return m.used }

// Contexts returns the number of tracked checkpointed contexts.
func (m *Manager) Contexts() int { return len(m.ctxs) }

// SpilledContexts returns how many tracked contexts live in host memory.
func (m *Manager) SpilledContexts() int {
	n := 0
	for _, c := range m.ctxs {
		if c.spilled {
			n++
		}
	}
	return n
}

// hostTransferCycles is the cost of moving bytes across the host link.
func (m *Manager) hostTransferCycles(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return int64(float64(bytes)/m.cfg.HostBWBytesPerCycle+0.999999) + m.cfg.HostLatencyCycles
}

// Save registers a task's checkpointed context at the given cycle. If the
// NPU pool cannot hold it, the least-recently-saved resident contexts are
// migrated to host memory first (Section VI-G's proactive migration). The
// returned cycles are the *additional* latency beyond the checkpoint DMA
// itself — zero when everything fits, host-transfer time when the runtime
// had to spill. Saving a context larger than the entire pool stores it
// directly in host memory.
func (m *Manager) Save(task int, bytes int64, now int64) (extraCycles int64, err error) {
	if bytes < 0 {
		return 0, fmt.Errorf("ckptmem: negative context size")
	}
	if _, dup := m.ctxs[task]; dup {
		return 0, fmt.Errorf("ckptmem: task %d already has a saved context", task)
	}
	ctx := &context{task: task, bytes: bytes, savedAt: now}
	if bytes > m.cfg.NPUMemBytes {
		ctx.spilled = true
		m.ctxs[task] = ctx
		return m.hostTransferCycles(bytes), nil
	}
	var extra int64
	if m.used+bytes > m.cfg.NPUMemBytes {
		extra += m.evict(m.used + bytes - m.cfg.NPUMemBytes)
	}
	m.used += bytes
	m.ctxs[task] = ctx
	return extra, nil
}

// evict migrates least-recently-saved resident contexts to host memory
// until at least need bytes are free, returning the migration cycles.
func (m *Manager) evict(need int64) int64 {
	resident := make([]*context, 0, len(m.ctxs))
	for _, c := range m.ctxs {
		if !c.spilled {
			resident = append(resident, c)
		}
	}
	sort.Slice(resident, func(i, j int) bool {
		if resident[i].savedAt != resident[j].savedAt {
			return resident[i].savedAt < resident[j].savedAt
		}
		return resident[i].task < resident[j].task
	})
	var freed, cycles int64
	for _, c := range resident {
		if freed >= need {
			break
		}
		c.spilled = true
		m.used -= c.bytes
		freed += c.bytes
		cycles += m.hostTransferCycles(c.bytes)
	}
	return cycles
}

// Restore releases a task's context for resumption. The returned cycles
// are the additional latency beyond the on-NPU restore DMA: zero for
// NPU-resident contexts, a host transfer for spilled ones.
func (m *Manager) Restore(task int) (extraCycles int64, err error) {
	c, ok := m.ctxs[task]
	if !ok {
		return 0, fmt.Errorf("ckptmem: task %d has no saved context", task)
	}
	delete(m.ctxs, task)
	if c.spilled {
		return m.hostTransferCycles(c.bytes), nil
	}
	m.used -= c.bytes
	return 0, nil
}

// Drop discards a task's context without restoring it (task killed or
// completed without resuming).
func (m *Manager) Drop(task int) {
	if c, ok := m.ctxs[task]; ok {
		if !c.spilled {
			m.used -= c.bytes
		}
		delete(m.ctxs, task)
	}
}
