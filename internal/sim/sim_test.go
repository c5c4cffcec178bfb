package sim

import (
	"testing"
	"time"

	"repro/internal/ckptmem"
	"repro/internal/npu"
	"repro/internal/preempt"
	"repro/internal/sched"
	"repro/internal/workload"
)

// fixtures builds a generator for hand-crafted scenarios.
func fixtures(t *testing.T) (npu.Config, sched.Config, *workload.Generator) {
	t.Helper()
	cfg := npu.DefaultConfig()
	scfg := sched.DefaultConfig()
	gen, err := workload.NewGenerator(cfg, 0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, scfg, gen
}

// runScenario runs the tasks to completion under the named
// configuration, recording preemptions and the timeline.
func runScenario(t *testing.T, cfg npu.Config, scfg sched.Config, policy string,
	preemptive bool, selector string, tasks []*workload.Task) *Result {
	t.Helper()
	return runScenarioRecord(t, cfg, scfg, policy, preemptive, selector, tasks, true)
}

// runScenarioRecord is runScenario with Options.Record given.
func runScenarioRecord(t *testing.T, cfg npu.Config, scfg sched.Config, policy string,
	preemptive bool, selector string, tasks []*workload.Task, record bool) *Result {
	t.Helper()
	return runEntries(t, cfg, scfg, policy, preemptive, selector, workload.Entries(tasks), record)
}

// runEntries is runScenarioRecord over entries the caller built.
func runEntries(t *testing.T, cfg npu.Config, scfg sched.Config, policy string,
	preemptive bool, selector string, entries []*sched.Task, record bool) *Result {
	t.Helper()
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
	s, err := New(Options{NPU: cfg, Sched: scfg, Policy: pol,
		Preemptive: preemptive, Selector: sel, Record: record}, entries)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// twoTasks builds the canonical victim/preemptor pair: a long low-priority
// VGG b16 at cycle 0 and a short high-priority AlexNet b1 mid-run.
func twoTasks(t *testing.T, gen *workload.Generator, cfg npu.Config) []*workload.Task {
	t.Helper()
	rng := workload.RNGFor(1, 1)
	victim, err := gen.InstanceByName(0, "CNN-VN", 16, sched.Low, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := gen.InstanceByName(1, "CNN-AN", 1, sched.High,
		victim.Program.TotalCycles/3, rng)
	if err != nil {
		t.Fatal(err)
	}
	return []*workload.Task{victim, pre}
}

func TestNewValidation(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	tasks := twoTasks(t, gen, cfg)
	pol, _ := sched.ByName("FCFS", scfg)
	if _, err := New(Options{NPU: cfg, Sched: scfg, Policy: pol}, nil); err == nil {
		t.Error("empty task list should be rejected")
	}
	if _, err := New(Options{NPU: cfg, Sched: scfg}, workload.Entries(tasks)); err == nil {
		t.Error("missing policy should be rejected")
	}
	if _, err := New(Options{NPU: cfg, Sched: scfg, Policy: pol, Preemptive: true},
		workload.Entries(tasks)); err == nil {
		t.Error("preemptive without selector should be rejected")
	}
	bad := cfg
	bad.SW = 0
	if _, err := New(Options{NPU: bad, Sched: scfg, Policy: pol},
		workload.Entries(tasks)); err == nil {
		t.Error("invalid NPU config should be rejected")
	}
}

func TestAllTasksCompleteUnderEveryConfiguration(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	configs := []struct {
		policy     string
		preemptive bool
		selector   string
	}{
		{"FCFS", false, ""}, {"RRB", false, ""}, {"HPF", false, ""},
		{"TOKEN", false, ""}, {"SJF", false, ""}, {"PREMA", false, ""},
		{"HPF", true, "static-checkpoint"},
		{"SJF", true, "static-checkpoint"},
		{"PREMA", true, "static-checkpoint"},
		{"PREMA", true, "static-kill"},
		{"PREMA", true, "static-drain"},
		{"PREMA", true, "dynamic"},
		{"PREMA", true, "dynamic-kill"},
		{"TOKEN", true, "dynamic"},
	}
	for _, c := range configs {
		tasks, err := gen.Generate(workload.Spec{Tasks: 6}, workload.RNGFor(11, 3))
		if err != nil {
			t.Fatal(err)
		}
		res := runScenario(t, cfg, scfg, c.policy, c.preemptive, c.selector, tasks)
		for _, task := range res.Tasks {
			if task.State != sched.Finished || task.Completion < 0 {
				t.Errorf("%s/%s: task %d did not finish", c.policy, c.selector, task.ID)
			}
			if task.Turnaround() < task.IsolatedCycles {
				t.Errorf("%s/%s: task %d turnaround %d below isolated %d",
					c.policy, c.selector, task.ID, task.Turnaround(), task.IsolatedCycles)
			}
			if task.Completion < task.Arrival {
				t.Errorf("task %d completed before arriving", task.ID)
			}
		}
		if err := res.Timeline.Validate(); err != nil {
			t.Errorf("%s/%s: overlapping occupancy spans: %v", c.policy, c.selector, err)
		}
	}
}

func TestNonPreemptiveNeverPreempts(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	tasks := twoTasks(t, gen, cfg)
	res := runScenario(t, cfg, scfg, "HPF", false, "", tasks)
	if len(res.Preemptions) != 0 {
		t.Errorf("non-preemptive run recorded %d preemptions", len(res.Preemptions))
	}
	for _, task := range res.Tasks {
		if task.Preemptions != 0 {
			t.Error("task counted a preemption under NP config")
		}
	}
}

func TestPreemptiveHPFPreemptsLowPriority(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	tasks := twoTasks(t, gen, cfg)
	res := runScenario(t, cfg, scfg, "HPF", true, "static-checkpoint", tasks)
	found := false
	for _, ev := range res.Preemptions {
		if ev.Preempted == 0 && ev.Preempting == 1 && ev.Cost.Mechanism == preempt.Checkpoint {
			found = true
			if ev.Cost.SavedBytes <= 0 {
				t.Error("checkpoint saved no context")
			}
		}
	}
	if !found {
		t.Fatal("high-priority task never preempted the low-priority victim")
	}
	// The high-priority task must finish long before the victim.
	var victim, pre *sched.Task
	for _, task := range res.Tasks {
		if task.ID == 0 {
			victim = task
		} else {
			pre = task
		}
	}
	if pre.Completion >= victim.Completion {
		t.Error("preemptor should finish before the preempted long job")
	}
	// And its latency should be close to isolated: the checkpoint and
	// trap overheads are microseconds against a millisecond inference.
	if ntt := pre.NTT(); ntt > 1.5 {
		t.Errorf("preemptor NTT %v too high under P-HPF", ntt)
	}
	if victim.CheckpointCycles <= 0 {
		t.Error("victim should have paid checkpoint+restore DMA cycles")
	}
}

func TestKillForcesReExecution(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	tasks := twoTasks(t, gen, cfg)
	res := runScenario(t, cfg, scfg, "HPF", true, "static-kill", tasks)
	var victim *sched.Task
	for _, task := range res.Tasks {
		if task.ID == 0 {
			victim = task
		}
	}
	if victim.WastedCycles <= 0 {
		t.Fatal("KILL should discard the victim's in-flight work")
	}
	// Turnaround must include the wasted work plus a full re-execution.
	if victim.Turnaround() < victim.IsolatedCycles+victim.WastedCycles {
		t.Errorf("victim turnaround %d does not account for wasted %d + isolated %d",
			victim.Turnaround(), victim.WastedCycles, victim.IsolatedCycles)
	}
}

func TestDrainNeverInterruptsVictim(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	tasks := twoTasks(t, gen, cfg)
	res := runScenario(t, cfg, scfg, "HPF", true, "static-drain", tasks)
	var victim, pre *sched.Task
	for _, task := range res.Tasks {
		if task.ID == 0 {
			victim = task
		} else {
			pre = task
		}
	}
	if victim.Preemptions != 0 || victim.CheckpointCycles != 0 {
		t.Error("DRAIN must not interrupt the running task")
	}
	// The preemptor waits for the victim to finish.
	if pre.Start < victim.Completion {
		t.Errorf("preemptor started at %d before victim completed at %d",
			pre.Start, victim.Completion)
	}
}

func TestCheckpointBeatsKillOnSTP(t *testing.T) {
	// Section IV-E: CHECKPOINT preserves progress, so the victim (and
	// hence system throughput) fares better than under KILL.
	cfg, scfg, gen := fixtures(t)
	ck := runScenario(t, cfg, scfg, "HPF", true, "static-checkpoint", twoTasks(t, gen, cfg))
	ki := runScenario(t, cfg, scfg, "HPF", true, "static-kill", twoTasks(t, gen, cfg))
	var ckVictim, kiVictim *sched.Task
	for _, task := range ck.Tasks {
		if task.ID == 0 {
			ckVictim = task
		}
	}
	for _, task := range ki.Tasks {
		if task.ID == 0 {
			kiVictim = task
		}
	}
	if ckVictim.Turnaround() >= kiVictim.Turnaround() {
		t.Errorf("checkpoint victim (%d) should finish sooner than kill victim (%d)",
			ckVictim.Turnaround(), kiVictim.Turnaround())
	}
}

func TestDeterminism(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	run := func() *Result {
		tasks, err := gen.Generate(workload.Spec{Tasks: 8}, workload.RNGFor(77, 5))
		if err != nil {
			t.Fatal(err)
		}
		return runScenario(t, cfg, scfg, "PREMA", true, "dynamic", tasks)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Wakes != b.Wakes || len(a.Preemptions) != len(b.Preemptions) {
		t.Fatalf("same-seed runs diverged: cycles %d/%d wakes %d/%d preemptions %d/%d",
			a.Cycles, b.Cycles, a.Wakes, b.Wakes, len(a.Preemptions), len(b.Preemptions))
	}
	for i := range a.Tasks {
		if a.Tasks[i].Completion != b.Tasks[i].Completion {
			t.Fatalf("task %d completion differs", i)
		}
	}
}

func TestIdleNPUJumpsToNextArrival(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	rng := workload.RNGFor(5, 5)
	// A single task arriving late: the simulator must jump to it.
	late, err := gen.InstanceByName(0, "CNN-GN", 1, sched.Low, cfg.Cycles(50*time.Millisecond), rng)
	if err != nil {
		t.Fatal(err)
	}
	res := runScenario(t, cfg, scfg, "FCFS", false, "", []*workload.Task{late})
	if res.Tasks[0].Start != late.Arrival {
		t.Errorf("task started at %d, want its arrival %d", res.Tasks[0].Start, late.Arrival)
	}
	if res.Tasks[0].Turnaround() != res.Tasks[0].IsolatedCycles {
		t.Errorf("sole task's turnaround %d should equal isolated %d",
			res.Tasks[0].Turnaround(), res.Tasks[0].IsolatedCycles)
	}
}

// A request arriving long after the run starts must not trip the
// livelock guard: the default bound counts from the latest arrival. One
// CNN-GN b1 request at 3 s used to fail with "exceeded max cycles".
func TestLateArrivalWithinDefaultBound(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	late, err := gen.InstanceByName(0, "CNN-GN", 1, sched.Low, cfg.Cycles(3*time.Second),
		workload.RNGFor(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	res := runScenario(t, cfg, scfg, "FCFS", false, "", []*workload.Task{late})
	if res.Tasks[0].Turnaround() != res.Tasks[0].IsolatedCycles {
		t.Errorf("sole late task's turnaround %d should equal isolated %d",
			res.Tasks[0].Turnaround(), res.Tasks[0].IsolatedCycles)
	}
}

// The same holds for a closed-loop arrival: a completion that releases a
// request 3 s later extends the bound to cover it.
func TestLateInjectedArrivalWithinDefaultBound(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	rng := workload.RNGFor(5, 7)
	first, err := gen.InstanceByName(0, "CNN-GN", 1, sched.Low, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	next, err := gen.InstanceByName(1, "CNN-GN", 1, sched.Low, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := sched.ByName("FCFS", scfg)
	if err != nil {
		t.Fatal(err)
	}
	entry := first.Entry(first.ID, first.Arrival, 1)
	var injectedAt int64
	s, err := New(Options{
		NPU: cfg, Sched: scfg, Policy: pol,
		OnComplete: func(done *sched.Task, now int64) []*sched.Task {
			if done != entry {
				return nil
			}
			injectedAt = now + cfg.Cycles(3*time.Second)
			return []*sched.Task{next.Entry(next.ID, injectedAt, 1)}
		},
	}, []*sched.Task{entry})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 2 || res.Tasks[1].Start != injectedAt {
		t.Errorf("injected task should start at its arrival %d", injectedAt)
	}
}

func TestQuantumControlsWakeRate(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	tasks := twoTasks(t, gen, cfg)
	coarse := scfg
	coarse.Quantum = 4 * time.Millisecond
	resCoarse := runScenario(t, cfg, coarse, "FCFS", false, "", tasks)

	fine := scfg
	fine.Quantum = 100 * time.Microsecond
	resFine := runScenario(t, cfg, fine, "FCFS", false, "", twoTasks(t, gen, cfg))
	if resFine.Wakes <= resCoarse.Wakes {
		t.Errorf("finer quantum should wake more: %d vs %d", resFine.Wakes, resCoarse.Wakes)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	tasks := twoTasks(t, gen, cfg)
	pol, _ := sched.ByName("FCFS", scfg)
	s, err := New(Options{NPU: cfg, Sched: scfg, Policy: pol, MaxCycles: 10},
		workload.Entries(tasks))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("exceeding MaxCycles must be reported as an error")
	}
}

func TestBusyCyclesNeverExceedMakespan(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	tasks, err := gen.Generate(workload.Spec{Tasks: 6}, workload.RNGFor(21, 9))
	if err != nil {
		t.Fatal(err)
	}
	res := runScenario(t, cfg, scfg, "PREMA", true, "dynamic", tasks)
	if busy := res.Timeline.BusyCycles(); busy > res.Cycles {
		t.Errorf("timeline busy %d exceeds makespan %d", busy, res.Cycles)
	}
}

func TestFiniteCheckpointMemorySpills(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	// A pool smaller than one full-UBUF checkpoint forces every saved
	// context over the host link.
	mem, err := ckptmem.New(ckptmem.Config{
		NPUMemBytes:         1 << 20, // 1 MB
		HostBWBytesPerCycle: 16,
		HostLatencyCycles:   1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(m *ckptmem.Manager) *sched.Task {
		tasks := twoTasks(t, gen, cfg)
		pol, _ := sched.ByName("HPF", scfg)
		sel, _ := sched.SelectorByName("static-checkpoint")
		s, err := New(Options{NPU: cfg, Sched: scfg, Policy: pol,
			Preemptive: true, Selector: sel, CkptMem: m},
			workload.Entries(tasks))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range res.Tasks {
			if task.ID == 0 {
				return task
			}
		}
		t.Fatal("victim missing")
		return nil
	}
	unbounded := run(nil)
	bounded := run(mem)
	if bounded.Preemptions == 0 {
		t.Fatal("scenario should preempt")
	}
	if bounded.CheckpointCycles <= unbounded.CheckpointCycles {
		t.Errorf("spilled checkpoints should cost more: %d vs %d",
			bounded.CheckpointCycles, unbounded.CheckpointCycles)
	}
}
