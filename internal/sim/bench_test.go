package sim_test

// Allocation benchmarks for the simulator hot path: one full 8-task
// simulation per iteration on the paper's canonical workload, with
// b.ReportAllocs demonstrating the steady-state allocation behaviour of
// sim.Run. Workload generation (tasks, execution cursors) is included in
// every iteration — its allocations are a small constant per run, so the
// allocs/op figure is dominated by the scheduler wake loop.

import (
	"testing"

	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchRun executes one simulation per iteration under the named policy,
// constructing the policy and selector per run as the experiment engine
// does.
func benchRun(b *testing.B, policyName string, preemptive bool, selectorName string) {
	b.Helper()
	cfg := npu.DefaultConfig()
	scfg := sched.DefaultConfig()
	gen, err := workload.NewGenerator(cfg, 0xA11CE)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the generator's program cache so compilation cost is excluded
	// from the steady-state measurement.
	if _, err := gen.Generate(workload.Spec{Tasks: 8}, workload.RNGFor(1, 0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tasks, err := gen.Generate(workload.Spec{Tasks: 8}, workload.RNGFor(1, 0))
		if err != nil {
			b.Fatal(err)
		}
		policy, err := sched.ByName(policyName, scfg)
		if err != nil {
			b.Fatal(err)
		}
		var selector sched.MechanismSelector
		if selectorName != "" {
			if selector, err = sched.SelectorByName(selectorName); err != nil {
				b.Fatal(err)
			}
		}
		s, err := sim.New(sim.Options{NPU: cfg, Sched: scfg, Policy: policy,
			Preemptive: preemptive, Selector: selector}, workload.Entries(tasks))
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Wakes == 0 {
			b.Fatal("no scheduler wakes")
		}
	}
}

// BenchmarkRunPREMADynamic measures the paper's primary configuration:
// 8 tasks under preemptive PREMA with Algorithm 3 mechanism selection.
func BenchmarkRunPREMADynamic(b *testing.B) {
	benchRun(b, "PREMA", true, "dynamic")
}

// BenchmarkRunNPFCFS measures the non-preemptive FCFS baseline.
func BenchmarkRunNPFCFS(b *testing.B) {
	benchRun(b, "FCFS", false, "")
}

// BenchmarkRunTokenStatic measures the TOKEN policy with a static
// CHECKPOINT mechanism (exercises the candidate-group path without
// Algorithm 3).
func BenchmarkRunTokenStatic(b *testing.B) {
	benchRun(b, "TOKEN", true, "static-checkpoint")
}
