package energy

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/dnn"
	"repro/internal/npu"
	"repro/internal/preempt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Default()
	bad.PJPerMAC = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MAC energy should fail")
	}
	inverted := Default()
	inverted.PJPerDRAMByte = inverted.PJPerSRAMByte / 2
	if err := inverted.Validate(); err == nil {
		t.Error("DRAM cheaper than SRAM should fail")
	}
	neg := Default()
	neg.StaticWatts = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative static power should fail")
	}
}

func TestProgramEnergyScalesWithWork(t *testing.T) {
	cfg := npu.DefaultConfig()
	c, err := compiler.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := Default()
	small, err := c.Compile(dnn.MobileNet(), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	big, err := c.Compile(dnn.VGG16(), 16, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	es, eb := m.Program(cfg, small), m.Program(cfg, big)
	if eb.Total() <= es.Total() {
		t.Errorf("VGG b16 (%.3f J) should cost more than MobileNet b1 (%.3f J)",
			eb.Total(), es.Total())
	}
	for _, e := range []Breakdown{es, eb} {
		if e.ComputeJ <= 0 || e.SRAMJ <= 0 || e.StaticJ <= 0 {
			t.Errorf("breakdown has non-positive components: %+v", e)
		}
	}
	// At a plausible scale: a single inference costs millijoules to a
	// few joules, not kilojoules.
	if eb.Total() > 10 || es.Total() < 1e-6 {
		t.Errorf("implausible energy scale: %.4g J / %.4g J", eb.Total(), es.Total())
	}
}

func runOnce(t *testing.T, policy string, preemptive bool, selector string) (Breakdown, npu.Config) {
	t.Helper()
	cfg := npu.DefaultConfig()
	scfg := sched.DefaultConfig()
	gen, err := workload.NewGenerator(cfg, 0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := gen.Generate(workload.Spec{Tasks: 8}, workload.RNGFor(0xE6, 1))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := sched.ByName(policy, scfg)
	if err != nil {
		t.Fatal(err)
	}
	var sel sched.MechanismSelector
	if selector != "" {
		if sel, err = sched.SelectorByName(selector); err != nil {
			t.Fatal(err)
		}
	}
	s, err := sim.New(sim.Options{NPU: cfg, Sched: scfg, Policy: pol,
		Preemptive: preemptive, Selector: sel, Record: true}, workload.Entries(tasks))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var costs []preempt.Cost
	for _, ev := range res.Preemptions {
		costs = append(costs, ev.Cost)
	}
	return Default().Run(cfg, res.Tasks, costs, res.Cycles), cfg
}

func TestRunEnergyAccountsPreemptionCosts(t *testing.T) {
	base, _ := runOnce(t, "FCFS", false, "")
	prema, _ := runOnce(t, "PREMA", true, "dynamic")
	if base.CheckpointJ != 0 || base.WastedJ != 0 {
		t.Error("non-preemptive run should have no preemption energy")
	}
	// PREMA's checkpoint energy must be a tiny fraction of total —
	// the Section VI-F negligibility argument.
	if frac := prema.CheckpointJ / prema.Total(); frac > 0.01 {
		t.Errorf("checkpoint energy fraction %.4f should be negligible", frac)
	}
}

func TestPREMAEnergyOverheadNegligible(t *testing.T) {
	// Section VI-F's argument: PREMA's own costs (checkpoint DMA,
	// scheduling logic) are negligible, so over the same work its
	// total energy matches the baseline within a fraction of a
	// percent — any throughput gain is therefore a direct
	// energy-efficiency gain in sustained serving.
	base, _ := runOnce(t, "FCFS", false, "")
	prema, _ := runOnce(t, "PREMA", true, "dynamic")
	gain := base.Total() / prema.Total()
	if gain < 0.99 || gain > 1.05 {
		t.Errorf("same-work energy ratio %.4f should be ~1 (PREMA overhead negligible)", gain)
	}
}
