package core

import (
	"testing"

	"repro/internal/npu"
	"repro/internal/preempt"
	"repro/internal/sched"
)

func makeTask(id int, prio sched.Priority, arrival, total int64) *sched.Task {
	prog := &npu.Program{Model: "synthetic", Batch: 1}
	prog.AppendLayer(npu.Instr{Op: npu.GEMMOp, Cycles: int32(total)})
	return sched.NewTask(id, "synthetic", 1, prio, arrival, npu.NewExecution(prog), total)
}

func TestZeroConfigUsesPaperDefaults(t *testing.T) {
	e := New(Config{})
	if e.Policy().Name() != "PREMA" {
		t.Errorf("policy = %s", e.Policy().Name())
	}
	if e.Selector().Name() != "dynamic-CHECKPOINT" {
		t.Errorf("selector = %s", e.Selector().Name())
	}
}

func TestStaticConfiguration(t *testing.T) {
	e := New(Config{DisableDynamic: true, Saving: preempt.Kill})
	if e.Selector().Name() != "static-KILL" {
		t.Errorf("selector = %s", e.Selector().Name())
	}
}

func TestDecideEmptyQueue(t *testing.T) {
	e := New(Config{})
	d := e.Decide(nil, nil, 0)
	if d.Candidate != nil || d.Preempt {
		t.Error("empty queue should decide nothing")
	}
}

func TestDecideDispatchesOnIdleNPU(t *testing.T) {
	e := New(Config{})
	task := makeTask(1, sched.Medium, 0, 1000)
	d := e.Decide([]*sched.Task{task}, nil, 10)
	if d.Candidate != task || d.Preempt {
		t.Errorf("idle dispatch wrong: %+v", d)
	}
}

func TestDecidePreemptsViaCheckpoint(t *testing.T) {
	e := New(Config{})
	long := makeTask(1, sched.Low, 0, 10_000_000)
	long.MarkRunning(0)
	urgent := makeTask(2, sched.High, 100, 20_000)
	d := e.Decide([]*sched.Task{urgent}, long, 200)
	if !d.Preempt || d.Mechanism != preempt.Checkpoint {
		t.Errorf("urgent short task should checkpoint-preempt: %+v", d)
	}
	if d.Candidate != urgent {
		t.Error("candidate should be the urgent task")
	}
}

func TestDecideDrainsNearlyFinishedRunner(t *testing.T) {
	e := New(Config{})
	runner := makeTask(1, sched.Low, 0, 10_000_000)
	runner.MarkRunning(0)
	runner.Exec.Advance(9_990_000) // 10k cycles remaining
	// Candidate with high urgency but long remaining time: Algorithm 3
	// must override with DRAIN, reported as no-preempt.
	cand := makeTask(2, sched.High, 100, 8_000_000)
	d := e.Decide([]*sched.Task{cand}, runner, 200)
	if d.Preempt {
		t.Errorf("nearly-finished runner should drain, got %+v", d)
	}
	if d.Mechanism != preempt.Drain {
		t.Errorf("mechanism = %v, want DRAIN", d.Mechanism)
	}
}

func TestDecideStaticAlwaysUsesSavingMechanism(t *testing.T) {
	e := New(Config{DisableDynamic: true, Saving: preempt.Checkpoint})
	runner := makeTask(1, sched.Low, 0, 10_000_000)
	runner.MarkRunning(0)
	runner.Exec.Advance(9_990_000)
	cand := makeTask(2, sched.High, 100, 8_000_000)
	// The static configuration cannot drain: if the policy recommends
	// the candidate, it checkpoints even a nearly-done runner.
	d := e.Decide([]*sched.Task{cand}, runner, 200)
	if d.Preempt && d.Mechanism != preempt.Checkpoint {
		t.Errorf("static engine must use its pinned mechanism: %+v", d)
	}
}

func TestUpdateTokensDelegates(t *testing.T) {
	e := New(Config{})
	task := makeTask(1, sched.High, 0, 1000)
	e.UpdateTokens([]*sched.Task{task}, 500)
	if task.Token <= sched.High.Tokens() {
		t.Error("waiting task should have gained tokens")
	}
}
