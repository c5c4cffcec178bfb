package ckptmem

// Test-only views of the manager's accounting.

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
