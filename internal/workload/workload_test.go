package workload

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/npu"
	"repro/internal/sched"
)

func newGen(t *testing.T) *Generator {
	t.Helper()
	g, err := NewGenerator(npu.DefaultConfig(), 0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateSpecBounds(t *testing.T) {
	g := newGen(t)
	cfg := npu.DefaultConfig()
	window := 10 * time.Millisecond
	tasks, err := g.Generate(Spec{Tasks: 12, ArrivalWindow: window}, RNGFor(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 12 {
		t.Fatalf("generated %d tasks, want 12", len(tasks))
	}
	windowCycles := cfg.Cycles(window)
	ids := map[int]bool{}
	for _, task := range tasks {
		if task.Arrival < 0 || task.Arrival > windowCycles {
			t.Errorf("arrival %d outside [0,%d]", task.Arrival, windowCycles)
		}
		if task.Program.TotalCycles <= 0 || task.EstimatedCycles <= 0 {
			t.Error("non-positive task cycle counts")
		}
		found := false
		for _, b := range dnn.BatchSizes {
			if task.Batch == b {
				found = true
			}
		}
		if !found {
			t.Errorf("batch %d outside the evaluated set", task.Batch)
		}
		switch task.Priority {
		case sched.Low, sched.Medium, sched.High:
		default:
			t.Errorf("priority %v outside low/medium/high", task.Priority)
		}
		if ids[task.ID] {
			t.Errorf("duplicate task ID %d", task.ID)
		}
		ids[task.ID] = true
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	g := newGen(t)
	if _, err := g.Generate(Spec{Tasks: 0}, RNGFor(1, 1)); err == nil {
		t.Error("zero tasks should be rejected")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := newGen(t)
	a, err := g.Generate(Spec{Tasks: 8}, RNGFor(5, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(Spec{Tasks: 8}, RNGFor(5, 7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Model != b[i].Model || a[i].Arrival != b[i].Arrival ||
			a[i].Batch != b[i].Batch || a[i].Priority != b[i].Priority ||
			a[i].Program.TotalCycles != b[i].Program.TotalCycles {
			t.Fatalf("task %d differs between same-seed generations", i)
		}
	}
}

func TestFixedPriorityAndBatch(t *testing.T) {
	g := newGen(t)
	tasks, err := g.Generate(Spec{
		Tasks: 6, FixedPriority: sched.High, BatchSizes: []int{1},
	}, RNGFor(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.Priority != sched.High || task.Batch != 1 {
			t.Errorf("task %d: priority %v batch %d", task.ID, task.Priority, task.Batch)
		}
	}
}

func TestOracleEstimatorIsExact(t *testing.T) {
	g := newGen(t)
	tasks, err := g.Generate(Spec{Tasks: 8, Estimator: Oracle()}, RNGFor(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.EstimatedCycles != task.Program.TotalCycles {
			t.Errorf("oracle estimate %d != isolated %d", task.EstimatedCycles, task.Program.TotalCycles)
		}
	}
	// The marker must not be called directly.
	if _, err := Oracle().Estimate(nil, 0, 0); err == nil {
		t.Error("oracle marker Estimate should error")
	}
}

func TestRNNInstancesUseSampledLengths(t *testing.T) {
	g := newGen(t)
	m, err := dnn.ByName("RNN-MT2")
	if err != nil {
		t.Fatal(err)
	}
	seenLens := map[int]bool{}
	for i := 0; i < 20; i++ {
		task, err := g.Instance(i, m, 1, sched.Low, 0, nil, RNGFor(9, i))
		if err != nil {
			t.Fatal(err)
		}
		if task.InLen < m.MinInLen || task.InLen > m.MaxInLen {
			t.Errorf("inLen %d outside profile bounds", task.InLen)
		}
		if task.ActualOut <= 0 || task.PredictedOut <= 0 {
			t.Error("RNN instance without sampled lengths")
		}
		if task.Program.InLen != task.InLen || task.Program.OutLen != task.ActualOut {
			t.Error("program compiled with different lengths than sampled")
		}
		seenLens[task.ActualOut] = true
	}
	if len(seenLens) < 3 {
		t.Error("sampled output lengths show no variation")
	}
}

func TestProgramCacheSharesImmutablePrograms(t *testing.T) {
	g := newGen(t)
	m := dnn.AlexNet()
	a, err := g.Instance(0, m, 4, sched.Low, 0, nil, RNGFor(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Instance(1, m, 4, sched.Low, 0, nil, RNGFor(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Program != b.Program {
		t.Error("identical instances should share the cached program")
	}
	// But executions must be independent cursors.
	ea, eb := a.Entry(a.ID, a.Arrival, 1), b.Entry(b.ID, b.Arrival, 1)
	ea.Exec.Advance(100)
	if eb.Exec.Executed() != 0 {
		t.Error("executions share state")
	}
}

func TestInstanceByName(t *testing.T) {
	g := newGen(t)
	task, err := g.InstanceByName(3, "CNN-GN", 4, sched.Medium, 123, RNGFor(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if task.Model != "CNN-GN" || task.Arrival != 123 || task.Batch != 4 {
		t.Errorf("instance fields wrong: %+v", task)
	}
	if _, err := g.InstanceByName(0, "NOPE", 1, sched.Low, 0, RNGFor(1, 1)); err == nil {
		t.Error("unknown model should error")
	}
}

func TestEntriesAreFresh(t *testing.T) {
	g := newGen(t)
	tasks, err := g.Generate(Spec{Tasks: 3}, RNGFor(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	first, second := Entries(tasks), Entries(tasks)
	if len(first) != 3 || len(second) != 3 {
		t.Fatal("one entry per task expected")
	}
	for i, task := range tasks {
		e := first[i]
		if e.ID != task.ID || e.Arrival != task.Arrival || e.Model != task.Model ||
			e.EstimatedCycles != task.EstimatedCycles || e.IsolatedCycles != task.Program.TotalCycles {
			t.Errorf("entry %d does not carry its task: %+v", i, e)
		}
		if e == second[i] {
			t.Errorf("entry %d is shared between calls", i)
		}
	}
	// Running one call's entries leaves the next call's untouched, and a
	// refill makes them fresh again in place.
	first[0].Exec.Advance(100)
	first[0].Start, first[0].Completion = 0, 1
	if again := Entries(tasks)[0]; again.Exec.Executed() != 0 || again.Start != -1 || again.Completion != -1 {
		t.Error("a simulated entry leaked into a later call")
	}
	entry := first[0]
	if Refill(first, tasks); first[0] != entry || *entry != *second[0] {
		t.Errorf("a refilled entry is %+v, want %+v in place", *first[0], *second[0])
	}
}

// TestEntriesAllocs pins a stream's entries to one slab: n entries cost
// two allocations (the entries and the pointers to them), and refilling
// them for the next configuration compared on the stream costs none.
func TestEntriesAllocs(t *testing.T) {
	g := newGen(t)
	tasks, err := g.Generate(Spec{Tasks: 16}, RNGFor(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	var entries []*sched.Task
	if allocs := testing.AllocsPerRun(100, func() { entries = Entries(tasks) }); allocs != 2 {
		t.Errorf("Entries of %d tasks made %v allocations, want 2", len(tasks), allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { Refill(entries, tasks) }); allocs != 0 {
		t.Errorf("Refill of %d entries made %v allocations, want 0", len(tasks), allocs)
	}
}

// TestEntryMatchesNewTask pins Entry to the constructor it folds: a
// context-table entry over a cursor at the factor, with the estimate
// scaled to match.
func TestEntryMatchesNewTask(t *testing.T) {
	g := newGen(t)
	tasks, err := g.Generate(Spec{Tasks: 8}, RNGFor(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1, 1.5, 2, 3} {
		for i, task := range tasks {
			at := task.Arrival + int64(i)*1000
			want := sched.NewTask(i+10, task.Model, task.Batch, task.Priority, at,
				npu.NewScaledExecution(task.Program, f), int64(float64(task.EstimatedCycles)*f))
			if got := task.Entry(i+10, at, f); !reflect.DeepEqual(got, want) {
				t.Errorf("factor %v task %d: Entry\n%+v\nwant\n%+v", f, i, got, want)
			}
		}
	}
	if e := tasks[0].Entry(0, 0, 1); e.Exec != *npu.NewExecution(tasks[0].Program) {
		t.Error("a nominal-speed entry's cursor differs from npu.NewExecution's")
	}
}

// TestInstanceAllocs pins a warm-cache Instance to one allocation, the
// request record: it builds no scheduler entry or cursor.
func TestInstanceAllocs(t *testing.T) {
	g := newGen(t)
	m := dnn.AlexNet()
	rng := RNGFor(1, 1)
	if _, err := g.Instance(0, m, 4, sched.Low, 0, nil, rng); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := g.Instance(1, m, 4, sched.Low, 7, nil, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("warm-cache Instance made %v allocations, want 1", allocs)
	}
}

func TestRestrictedModelPool(t *testing.T) {
	g := newGen(t)
	pool := []*dnn.Model{dnn.AlexNet()}
	tasks, err := g.Generate(Spec{Tasks: 5, Models: pool}, RNGFor(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.Model != "CNN-AN" {
			t.Errorf("task drew model %s outside the restricted pool", task.Model)
		}
	}
}
