package prema

import (
	"strings"
	"testing"
	"time"
)

func newSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	sys, err := NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidatesConfig(t *testing.T) {
	bad := DefaultNPUConfig()
	bad.SW = 0
	if _, err := NewSystem(WithNPU(bad)); err == nil {
		t.Error("invalid NPU config should be rejected")
	}
	scfg := DefaultSchedConfig()
	scfg.Quantum = 0
	if _, err := NewSystem(WithSchedConfig(scfg)); err == nil {
		t.Error("non-positive quantum should be rejected")
	}
}

func TestSystemOptions(t *testing.T) {
	sys := newSystem(t, WithQuantum(500*time.Microsecond), WithProfileSeed(42))
	if got := sys.SchedConfig().Quantum; got != 500*time.Microsecond {
		t.Errorf("quantum %v, want 500µs", got)
	}
	cfg := DefaultNPUConfig()
	cfg.SW, cfg.SH = 64, 64
	sys = newSystem(t, WithNPU(cfg))
	if got := sys.NPU().SW; got != 64 {
		t.Errorf("systolic width %d, want 64", got)
	}
}

func TestModelsListed(t *testing.T) {
	sys := newSystem(t)
	names := sys.Models()
	if len(names) < 8 {
		t.Fatalf("only %d models listed", len(names))
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"CNN-VN", "RNN-MT2", "RNN-ASR"} {
		if !strings.Contains(joined, want) {
			t.Errorf("model %s missing from zoo listing", want)
		}
	}
	if len(SuiteModels()) != 8 {
		t.Errorf("evaluation suite has %d models, want 8", len(SuiteModels()))
	}
}

func TestWorkloadOptions(t *testing.T) {
	sys := newSystem(t)
	tasks, err := sys.Workload(WorkloadSpec{
		Tasks:         5,
		Models:        []string{"CNN-AN", "CNN-GN"},
		BatchSizes:    []int{4},
		ArrivalWindow: 5 * time.Millisecond,
		Priority:      High,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.Model != "CNN-AN" && task.Model != "CNN-GN" {
			t.Errorf("model %s outside restricted pool", task.Model)
		}
		if task.Batch != 4 {
			t.Errorf("batch %d, want 4", task.Batch)
		}
		if task.Priority != High {
			t.Errorf("priority %v, want high", task.Priority)
		}
	}
	if _, err := sys.Workload(WorkloadSpec{Tasks: 2, Models: []string{"NOPE"}}, 0); err == nil {
		t.Error("unknown model in spec should error")
	}
	if _, err := sys.Workload(WorkloadSpec{Tasks: 2, Estimator: "psychic"}, 0); err == nil {
		t.Error("unknown estimator in spec should error")
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	sys := newSystem(t)
	tasks, err := sys.Workload(WorkloadSpec{Tasks: 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Simulate(Scheduler{Policy: PREMA, Preemptive: true, Mechanism: Dynamic}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ANTT < 1 {
		t.Errorf("ANTT %v below 1", res.Metrics.ANTT)
	}
	if res.Metrics.STP <= 0 || res.Metrics.STP > 6 {
		t.Errorf("STP %v outside (0, n]", res.Metrics.STP)
	}
	if res.MakespanCycles <= 0 {
		t.Error("non-positive makespan")
	}
	if res.Wakes <= 0 {
		t.Error("non-positive wake count")
	}
	if res.SLAViolationRate(1e9) != 0 {
		t.Error("infinite SLA target should never be violated")
	}
	if res.ServicedPreemptions() > len(res.Preemptions) {
		t.Error("serviced preemptions exceed events")
	}
	if err := res.Timeline.Validate(); err != nil {
		t.Errorf("timeline overlaps: %v", err)
	}
	if out := res.Timeline.Render(sys.NPU(), 80); !strings.Contains(out, "#") {
		t.Error("timeline render empty")
	}
}

func TestSimulateDefaultsMechanism(t *testing.T) {
	sys := newSystem(t)
	tasks, err := sys.Workload(WorkloadSpec{Tasks: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Preemptive with no mechanism specified defaults to dynamic.
	if _, err := sys.Simulate(Scheduler{Policy: SJF, Preemptive: true}, tasks); err != nil {
		t.Fatal(err)
	}
}

func TestInstances(t *testing.T) {
	sys := newSystem(t)
	insts, err := sys.Instances(1,
		TaskSpec{Model: "CNN-VN", Batch: 16, Priority: Low},
		TaskSpec{Model: "RNN-MT2", Arrival: 2 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Fatalf("built %d instances, want 2", len(insts))
	}
	if insts[0].Batch != 16 || insts[0].Priority != Low {
		t.Errorf("spec not honored: %+v", insts[0])
	}
	if insts[1].Priority != Medium {
		t.Errorf("zero priority should default to medium, got %v", insts[1].Priority)
	}
	if insts[1].Arrival != sys.NPU().Cycles(2*time.Millisecond) {
		t.Errorf("arrival %d cycles, want %d", insts[1].Arrival, sys.NPU().Cycles(2*time.Millisecond))
	}
	if insts[1].InLen <= 0 {
		t.Error("RNN instance missing sampled input length")
	}
	if _, err := sys.Instances(0, TaskSpec{Model: "NOPE"}); err == nil {
		t.Error("unknown model should error")
	}
}

func TestPREMABeatsFCFSOnWorkloadAverage(t *testing.T) {
	// The repository's headline claim, exercised through the public
	// API: PREMA with dynamic preemption improves ANTT over NP-FCFS.
	sys := newSystem(t)
	const runs = 8
	var fcfs, prema float64
	for r := 0; r < runs; r++ {
		tasks, err := sys.Workload(WorkloadSpec{Tasks: 8}, r)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sys.Simulate(Scheduler{Policy: FCFS}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		fcfs += a.Metrics.ANTT / runs
		tasks, err = sys.Workload(WorkloadSpec{Tasks: 8}, r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Simulate(Scheduler{Policy: PREMA, Preemptive: true, Mechanism: Dynamic}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		prema += b.Metrics.ANTT / runs
	}
	if fcfs/prema < 2 {
		t.Errorf("PREMA ANTT improvement %.2fx over FCFS; expected well above 2x", fcfs/prema)
	}
}

func TestOracleWorkload(t *testing.T) {
	sys := newSystem(t)
	tasks, err := sys.Workload(WorkloadSpec{Tasks: 4, Estimator: "oracle"}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.EstimatedCycles != task.Program.TotalCycles {
			t.Error("oracle workload should carry exact estimates")
		}
	}
}

func TestSimulateNode(t *testing.T) {
	sys := newSystem(t)
	tasks, err := sys.Workload(WorkloadSpec{Tasks: 12}, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.SimulateNode(Node{
		NPUs: 3, Routing: LeastWork,
		Local: Scheduler{Policy: PREMA, Preemptive: true, Mechanism: Dynamic},
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 12 {
		t.Fatalf("completed %d of 12 tasks", len(res.Tasks))
	}
	if len(res.PerNPU) != 3 {
		t.Fatalf("per-NPU stats for %d NPUs", len(res.PerNPU))
	}
	if res.Metrics.ANTT < 1 {
		t.Errorf("node ANTT %v below 1", res.Metrics.ANTT)
	}
}

func TestSimulateNodeDefaultRouting(t *testing.T) {
	sys := newSystem(t)
	tasks, err := sys.Workload(WorkloadSpec{Tasks: 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SimulateNode(Node{NPUs: 2,
		Local: Scheduler{Policy: FCFS}}, tasks); err != nil {
		t.Errorf("empty routing should default to round-robin: %v", err)
	}
}
