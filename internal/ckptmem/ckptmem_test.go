package ckptmem

import (
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func small() Config {
	return Config{NPUMemBytes: 100, HostBWBytesPerCycle: 10, HostLatencyCycles: 5}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{NPUMemBytes: 0, HostBWBytesPerCycle: 1},
		{NPUMemBytes: 1, HostBWBytesPerCycle: 0},
		{NPUMemBytes: 1, HostBWBytesPerCycle: 1, HostLatencyCycles: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestSaveRestoreWithinPool(t *testing.T) {
	m := mustNew(t, small())
	extra, err := m.Save(1, 60, 0)
	if err != nil || extra != 0 {
		t.Fatalf("in-pool save should be free: %d, %v", extra, err)
	}
	if m.NPUResidentBytes() != 60 || m.Contexts() != 1 {
		t.Errorf("accounting wrong: %d bytes, %d ctxs", m.NPUResidentBytes(), m.Contexts())
	}
	extra, err = m.Restore(1)
	if err != nil || extra != 0 {
		t.Fatalf("resident restore should be free: %d, %v", extra, err)
	}
	if m.NPUResidentBytes() != 0 || m.Contexts() != 0 {
		t.Error("restore did not release memory")
	}
}

func TestOversubscriptionSpillsLRU(t *testing.T) {
	m := mustNew(t, small())
	if _, err := m.Save(1, 60, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(2, 30, 20); err != nil {
		t.Fatal(err)
	}
	// Task 3 needs 50; the pool (100) holds 90 -> must evict task 1
	// (least recently saved).
	extra, err := m.Save(3, 50, 30)
	if err != nil {
		t.Fatal(err)
	}
	if extra <= 0 {
		t.Error("oversubscription must pay migration cycles")
	}
	if m.SpilledContexts() != 1 {
		t.Errorf("%d spilled contexts, want 1", m.SpilledContexts())
	}
	if m.NPUResidentBytes() != 80 {
		t.Errorf("resident bytes %d, want 30+50", m.NPUResidentBytes())
	}
	// Restoring the spilled task 1 pays the host transfer.
	extra, err = m.Restore(1)
	if err != nil {
		t.Fatal(err)
	}
	want := m.hostTransferCycles(60)
	if extra != want {
		t.Errorf("spilled restore cost %d, want %d", extra, want)
	}
	// Restoring resident task 2 is free.
	if extra, err = m.Restore(2); err != nil || extra != 0 {
		t.Errorf("resident restore cost %d, %v", extra, err)
	}
}

func TestGiantContextGoesStraightToHost(t *testing.T) {
	m := mustNew(t, small())
	extra, err := m.Save(1, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if extra <= 0 {
		t.Error("larger-than-pool context must pay host transfer")
	}
	if m.NPUResidentBytes() != 0 {
		t.Error("giant context must not occupy the NPU pool")
	}
	if m.SpilledContexts() != 1 {
		t.Error("giant context should be tracked as spilled")
	}
}

func TestErrors(t *testing.T) {
	m := mustNew(t, small())
	if _, err := m.Save(1, -1, 0); err == nil {
		t.Error("negative size should error")
	}
	if _, err := m.Save(1, 10, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(1, 10, 1); err == nil {
		t.Error("duplicate save should error")
	}
	if _, err := m.Restore(99); err == nil {
		t.Error("restoring unknown context should error")
	}
}

// Property: resident bytes never exceed the pool and never go negative,
// under arbitrary interleavings of saves and oldest- or newest-first
// restores.
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(ops []uint8, sizes []uint16) bool {
		m, err := New(small())
		if err != nil {
			return false
		}
		next := 0
		live := []int{}
		now := int64(0)
		for i, op := range ops {
			now++
			size := int64(100)
			if i < len(sizes) {
				size = int64(sizes[i] % 200)
			}
			switch op % 3 {
			case 0:
				if _, err := m.Save(next, size, now); err != nil {
					return false
				}
				live = append(live, next)
				next++
			case 1:
				if len(live) > 0 {
					id := live[0]
					live = live[1:]
					if _, err := m.Restore(id); err != nil {
						return false
					}
				}
			case 2:
				if len(live) > 0 {
					id := live[len(live)-1]
					live = live[:len(live)-1]
					if _, err := m.Restore(id); err != nil {
						return false
					}
				}
			}
			if m.NPUResidentBytes() < 0 || m.NPUResidentBytes() > 100 {
				return false
			}
		}
		return m.Contexts() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
