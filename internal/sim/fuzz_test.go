package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestRandomizedConfigurations fuzzes the simulator across random
// workloads, policies, mechanisms, quanta and arrival patterns, checking
// the invariants that must hold for every run:
//
//   - every task finishes, after it arrived, no earlier than its isolated
//     execution time;
//   - the occupancy timeline never overlaps;
//   - busy cycles never exceed the makespan;
//   - non-preemptive runs record no preemptions.
func TestRandomizedConfigurations(t *testing.T) {
	cfg, _, gen := fixtures(t)
	policies := []string{"FCFS", "RRB", "HPF", "TOKEN", "SJF", "PREMA"}
	selectors := []string{"static-checkpoint", "static-kill", "static-drain",
		"static-kill-layer", "dynamic", "dynamic-kill", "dynamic-kill-layer"}
	rng := rand.New(rand.NewPCG(0xF022, 0x1))

	const trials = 60
	for trial := 0; trial < trials; trial++ {
		scfg := sched.DefaultConfig()
		scfg.Quantum = time.Duration(50+rng.IntN(2000)) * time.Microsecond

		nTasks := 1 + rng.IntN(10)
		window := time.Duration(rng.IntN(30)) * time.Millisecond
		spec := workload.Spec{Tasks: nTasks, ArrivalWindow: window + time.Millisecond}
		if rng.IntN(3) == 0 {
			spec.BatchSizes = []int{1 + rng.IntN(16)}
		}
		if rng.IntN(4) == 0 {
			spec.Estimator = workload.Oracle()
		}
		tasks, err := gen.Generate(spec, workload.RNGFor(0xF022, trial))
		if err != nil {
			t.Fatal(err)
		}

		policy := policies[rng.IntN(len(policies))]
		preemptive := rng.IntN(2) == 1
		selector := ""
		if preemptive {
			selector = selectors[rng.IntN(len(selectors))]
		}

		res := runScenario(t, cfg, scfg, policy, preemptive, selector, tasks)
		checkSimInvariants(t, res, preemptive,
			fmt.Sprintf("trial %d (%s/%s)", trial, policy, selector))
	}
}

// checkSimInvariants asserts the run-independent simulator invariants
// shared by the randomized trials above and FuzzSimInvariants below.
func checkSimInvariants(t *testing.T, res *Result, preemptive bool, label string) {
	t.Helper()
	for _, task := range res.Tasks {
		if task.State != sched.Finished {
			t.Fatalf("%s: task %d unfinished", label, task.ID)
		}
		if task.Completion < task.Arrival {
			t.Fatalf("%s: task %d completed before arrival", label, task.ID)
		}
		if task.Turnaround() < task.IsolatedCycles {
			t.Fatalf("%s: task %d turnaround %d < isolated %d",
				label, task.ID, task.Turnaround(), task.IsolatedCycles)
		}
	}
	if err := res.Timeline.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if busy := res.Timeline.BusyCycles(); busy > res.Cycles {
		t.Fatalf("%s: busy %d > makespan %d", label, busy, res.Cycles)
	}
	if !preemptive && len(res.Preemptions) != 0 {
		t.Fatalf("%s: NP run recorded preemptions", label)
	}
}

// FuzzSimInvariants is the coverage-guided variant of
// TestRandomizedConfigurations: the fuzzer drives the raw scenario
// knobs (workload seed, policy, task count, arrival window, quantum,
// preemption mechanism) and every generated run must satisfy the same
// invariants. Each input also runs with Options.Record off, which must
// change nothing but the records (checkRecordOff). ci.sh exercises the
// seed corpus plus a short fuzz burst on every run
// (`go test -fuzz=FuzzSimInvariants -fuzztime=5s`).
func FuzzSimInvariants(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), uint16(10), uint16(500), false, uint8(0))
	f.Add(uint64(0xF022), uint8(5), uint8(7), uint16(25), uint16(1500), true, uint8(4))
	f.Add(uint64(42), uint8(2), uint8(0), uint16(0), uint16(50), true, uint8(6))
	f.Add(uint64(7), uint8(4), uint8(9), uint16(3), uint16(1999), true, uint8(1))

	policies := []string{"FCFS", "RRB", "HPF", "TOKEN", "SJF", "PREMA"}
	selectors := []string{"static-checkpoint", "static-kill", "static-drain",
		"static-kill-layer", "dynamic", "dynamic-kill", "dynamic-kill-layer"}

	f.Fuzz(func(t *testing.T, seed uint64, policyIdx, nTasks uint8,
		windowMs, quantumUs uint16, preemptive bool, selectorIdx uint8) {

		cfg, _, gen := fixtures(t)
		scfg := sched.DefaultConfig()
		scfg.Quantum = time.Duration(50+int(quantumUs)%2000) * time.Microsecond

		spec := workload.Spec{
			Tasks:         1 + int(nTasks)%10,
			ArrivalWindow: time.Duration(int(windowMs)%30)*time.Millisecond + time.Millisecond,
		}
		tasks, err := gen.Generate(spec, workload.RNGFor(seed, 0))
		if err != nil {
			t.Fatal(err)
		}

		policy := policies[int(policyIdx)%len(policies)]
		selector := ""
		if preemptive {
			selector = selectors[int(selectorIdx)%len(selectors)]
		}
		label := fmt.Sprintf("seed %#x (%s/%s)", seed, policy, selector)
		res := runScenario(t, cfg, scfg, policy, preemptive, selector, tasks)
		checkSimInvariants(t, res, preemptive, label)

		// The same tasks again, recording nothing.
		again, err := gen.Generate(spec, workload.RNGFor(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		bare := runScenarioRecord(t, cfg, scfg, policy, preemptive, selector, again, false)
		checkRecordOff(t, bare, res, label)
	})
}

// checkRecordOff asserts that a run with Options.Record off differs from
// the recorded run of the same tasks only in the records: every task
// matches field by field (its execution cursor by value), Cycles and
// Wakes match, and Preemptions and Timeline are nil.
func checkRecordOff(t *testing.T, bare, rec *Result, label string) {
	t.Helper()
	if bare.Preemptions != nil || bare.Timeline != nil {
		t.Fatalf("%s: a run with Record off kept %d preemptions and timeline %v",
			label, len(bare.Preemptions), bare.Timeline)
	}
	if len(bare.Tasks) != len(rec.Tasks) {
		t.Fatalf("%s: %d tasks with Record off, %d with it on", label, len(bare.Tasks), len(rec.Tasks))
	}
	for i, g := range bare.Tasks {
		w := rec.Tasks[i]
		gv, wv := *g, *w
		gv.Exec, wv.Exec = nil, nil
		if gv != wv || *g.Exec != *w.Exec {
			t.Fatalf("%s: task %d with Record off: %+v (cursor %+v), with it on: %+v (cursor %+v)",
				label, i, gv, *g.Exec, wv, *w.Exec)
		}
	}
	if bare.Cycles != rec.Cycles || bare.Wakes != rec.Wakes {
		t.Fatalf("%s: Record off ran %d cycles and %d wakes, on %d and %d",
			label, bare.Cycles, bare.Wakes, rec.Cycles, rec.Wakes)
	}
}

// TestSimultaneousArrivals exercises the degenerate arrival pattern where
// every task is dispatched at cycle zero.
func TestSimultaneousArrivals(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	var tasks []*workload.Task
	for i, name := range []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"} {
		task, err := gen.InstanceByName(i, name, 1, sched.Priorities[i%3], 0, workload.RNGFor(8, i))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	res := runScenario(t, cfg, scfg, "PREMA", true, "dynamic", tasks)
	if len(res.Tasks) != 4 {
		t.Fatalf("completed %d of 4", len(res.Tasks))
	}
	// Work-conserving: the makespan equals the sum of executions plus
	// overheads; with no arrival gaps the NPU should never idle.
	var busy int64
	for _, s := range res.Timeline.Spans() {
		busy += s.Duration()
	}
	if frac := float64(busy) / float64(res.Cycles); frac < 0.99 {
		t.Errorf("NPU idle %.1f%% despite simultaneous arrivals", (1-frac)*100)
	}
}

// TestSingleTaskAllPolicies checks the degenerate one-task system: every
// policy must schedule it immediately and its turnaround must equal its
// isolated time exactly.
func TestSingleTaskAllPolicies(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	for _, policy := range []string{"FCFS", "RRB", "HPF", "TOKEN", "SJF", "PREMA"} {
		task, err := gen.InstanceByName(0, "CNN-GN", 4, sched.Medium, 1000, workload.RNGFor(9, 9))
		if err != nil {
			t.Fatal(err)
		}
		res := runScenario(t, cfg, scfg, policy, true, "dynamic", []*workload.Task{task})
		got := res.Tasks[0].Turnaround()
		if got != res.Tasks[0].IsolatedCycles {
			t.Errorf("%s: sole task turnaround %d != isolated %d",
				policy, got, res.Tasks[0].IsolatedCycles)
		}
	}
}
