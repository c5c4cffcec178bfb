package metrics

import (
	"math"
	"testing"

	"repro/internal/npu"
	"repro/internal/sched"
)

// doneTask fabricates a completed task with a given isolated time and
// turnaround.
func doneTask(id int, prio sched.Priority, isolated, turnaround int64) *sched.Task {
	prog := &npu.Program{Model: "m", Batch: 1}
	prog.AppendLayer(npu.Instr{Op: npu.GEMMOp, Cycles: int32(isolated)})
	exec := npu.NewExecution(prog)
	t := sched.NewTask(id, "m", 1, prio, 0, exec, isolated)
	t.MarkRunning(0)
	t.MarkFinished(turnaround)
	return t
}

func TestFromTasksEquation1(t *testing.T) {
	// Two tasks: NTT 2.0 and 4.0 -> ANTT 3.0, STP = 0.5 + 0.25 = 0.75.
	tasks := []*sched.Task{
		doneTask(1, sched.Medium, 100, 200),
		doneTask(2, sched.Medium, 100, 400),
	}
	run, err := FromTasks(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if run.ANTT != 3.0 {
		t.Errorf("ANTT = %v, want 3.0", run.ANTT)
	}
	if run.STP != 0.75 {
		t.Errorf("STP = %v, want 0.75", run.STP)
	}
	if len(run.NTTs) != 2 || run.NTTs[0] != 2 || run.NTTs[1] != 4 {
		t.Errorf("NTTs = %v", run.NTTs)
	}
}

func TestFairnessEquation2(t *testing.T) {
	// Equal priorities, equal slowdowns: perfectly fair.
	equal := []*sched.Task{
		doneTask(1, sched.Low, 100, 300),
		doneTask(2, sched.Low, 200, 600),
	}
	run, err := FromTasks(equal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(run.Fairness-1) > 1e-12 {
		t.Errorf("equal-progress fairness = %v, want 1", run.Fairness)
	}

	// Priority-weighted: a high-priority task is *expected* to get more
	// progress; if both slow down equally, fairness drops because the
	// high-priority task got less than its share.
	weighted := []*sched.Task{
		doneTask(1, sched.High, 100, 200),
		doneTask(2, sched.Low, 100, 200),
	}
	run, err = FromTasks(weighted)
	if err != nil {
		t.Fatal(err)
	}
	// PP_high = 0.5/(9/10), PP_low = 0.5/(1/10): ratio = 1/9.
	if math.Abs(run.Fairness-1.0/9.0) > 1e-12 {
		t.Errorf("weighted fairness = %v, want 1/9", run.Fairness)
	}
}

func TestFromTasksErrors(t *testing.T) {
	if _, err := FromTasks(nil); err == nil {
		t.Error("empty task list should error")
	}
	unfinished := doneTask(1, sched.Low, 100, 200)
	unfinished.Completion = -1
	if _, err := FromTasks([]*sched.Task{unfinished}); err == nil {
		t.Error("unfinished task should error")
	}
	bad := doneTask(2, sched.Low, 100, 200)
	bad.IsolatedCycles = 0
	if _, err := FromTasks([]*sched.Task{bad}); err == nil {
		t.Error("non-positive isolated time should error")
	}
}

func TestSLAViolationRate(t *testing.T) {
	tasks := []*sched.Task{
		doneTask(1, sched.Low, 100, 150),  // NTT 1.5
		doneTask(2, sched.Low, 100, 500),  // NTT 5
		doneTask(3, sched.Low, 100, 2500), // NTT 25
		doneTask(4, sched.Low, 100, 100),  // NTT 1
	}
	cases := []struct {
		target float64
		want   float64
	}{
		{2, 0.5}, {10, 0.25}, {30, 0}, {1, 0.75},
	}
	for _, c := range cases {
		if got := SLAViolationRate(tasks, c.target); got != c.want {
			t.Errorf("SLA@%v = %v, want %v", c.target, got, c.want)
		}
	}
	if SLAViolationRate(nil, 4) != 0 {
		t.Error("empty set should have zero violations")
	}
}

func TestSLAMonotoneInTarget(t *testing.T) {
	tasks := []*sched.Task{
		doneTask(1, sched.Low, 100, 300),
		doneTask(2, sched.Low, 100, 900),
		doneTask(3, sched.Low, 100, 1800),
	}
	prev := 1.0
	for target := 2.0; target <= 20; target++ {
		got := SLAViolationRate(tasks, target)
		if got > prev {
			t.Fatalf("violation rate increased with looser target at %v", target)
		}
		prev = got
	}
}

func TestTailLatency(t *testing.T) {
	var tasks []*sched.Task
	for i := 1; i <= 100; i++ {
		prio := sched.Low
		if i%2 == 0 {
			prio = sched.High
		}
		tasks = append(tasks, doneTask(i, prio, 100, int64(i)*100))
	}
	all := TailLatency(tasks, 50, nil)
	if all != 5050 {
		t.Errorf("median turnaround = %v, want 5050", all)
	}
	hi := TailLatency(tasks, 95, func(t *sched.Task) bool { return t.Priority == sched.High })
	if hi <= all {
		t.Errorf("95th percentile of high tasks should exceed the overall median")
	}
	if !math.IsNaN(TailLatency(tasks, 95, func(t *sched.Task) bool { return false })) {
		t.Error("empty selection should be NaN")
	}
}

func TestAveragedAndRelative(t *testing.T) {
	runs := []Run{
		{ANTT: 2, STP: 4, Fairness: 0.5},
		{ANTT: 4, STP: 2, Fairness: 0.1},
	}
	agg := Averaged(runs)
	if agg.Runs != 2 || agg.ANTT != 3 || agg.STP != 3 || math.Abs(agg.Fairness-0.3) > 1e-12 {
		t.Errorf("aggregate = %+v", agg)
	}
	base := Aggregate{ANTT: 6, STP: 1.5, Fairness: 0.1}
	imp := Relative(agg, base)
	if imp.ANTT != 2 || imp.STP != 2 || math.Abs(imp.Fairness-3) > 1e-12 {
		t.Errorf("improvement = %+v", imp)
	}
	if empty := Averaged(nil); empty.Runs != 0 {
		t.Error("empty aggregate should be zero")
	}
}

func TestSTPBoundedByTaskCount(t *testing.T) {
	// Each task's C_single/C_multi <= 1, so STP <= n (Equation 1).
	tasks := []*sched.Task{
		doneTask(1, sched.Low, 100, 100),
		doneTask(2, sched.Low, 100, 120),
		doneTask(3, sched.Low, 100, 450),
	}
	run, err := FromTasks(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if run.STP > 3 {
		t.Errorf("STP %v exceeds task count", run.STP)
	}
	if run.ANTT < 1 {
		t.Errorf("ANTT %v below 1 (turnaround >= isolated)", run.ANTT)
	}
}
