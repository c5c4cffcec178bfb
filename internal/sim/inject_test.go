package sim

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// injectSet builds the five-instance scenario the injection tests run:
// three base tasks plus two extras at the given fixed arrivals. Each
// call replays the same RNG stream, so repeated calls produce identical
// instances.
func injectSet(t *testing.T, gen *workload.Generator, extra1, extra2 int64) []*workload.Task {
	t.Helper()
	rng := workload.RNGFor(0x17EC7, 1)
	mk := func(id int, model string, batch int, prio sched.Priority, arrival int64) *workload.Task {
		inst, err := gen.InstanceByName(id, model, batch, prio, arrival, rng)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	return []*workload.Task{
		mk(0, "CNN-AN", 1, sched.High, 0),
		mk(1, "CNN-VN", 16, sched.Low, 1000),
		mk(2, "RNN-MT1", 4, sched.Medium, 5000),
		mk(3, "CNN-GN", 4, sched.High, extra1),
		mk(4, "RNN-SA", 1, sched.Medium, extra2),
	}
}

// TestInjectionMatchesBatch proves the closed-loop invariant the serving
// layer's replay relies on: a run that learns two arrivals only when an
// earlier task completes (the OnComplete hook) is indistinguishable from
// a run given the same realized arrivals up front — the trajectory
// depends on arrival times, not on when an arrival became known.
func TestInjectionMatchesBatch(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	for _, c := range []struct {
		policy     string
		preemptive bool
		selector   string
	}{
		{"FCFS", false, ""},
		{"PREMA", true, "dynamic"},
	} {
		// Probe: the base tasks alone locate task 0's completion. The
		// extras arrive strictly after it, so (a) injecting them at that
		// completion is legal and (b) the full run's trajectory up to it
		// is identical to the probe's.
		probe := runScenario(t, cfg, scfg, c.policy, c.preemptive, c.selector,
			injectSet(t, gen, 1<<40, 1<<40)[:3])
		var c0 int64 = -1
		for _, task := range probe.Tasks {
			if task.ID == 0 {
				c0 = task.Completion
			}
		}
		if c0 <= 0 {
			t.Fatalf("%s: probe lost task 0", c.policy)
		}
		extra1, extra2 := c0+10_000, c0+250_000

		full := injectSet(t, gen, extra1, extra2)
		want := runScenario(t, cfg, scfg, c.policy, c.preemptive, c.selector, full)
		extras := workload.Entries(full[3:])
		pol, err := sched.ByName(c.policy, scfg)
		if err != nil {
			t.Fatal(err)
		}
		var sel sched.MechanismSelector
		if c.selector != "" {
			if sel, err = sched.SelectorByName(c.selector); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(Options{
			NPU: cfg, Sched: scfg, Policy: pol,
			Preemptive: c.preemptive, Selector: sel, Record: true,
			OnComplete: func(done *sched.Task, now int64) []*sched.Task {
				if done.ID == 0 {
					return extras
				}
				return nil
			},
		}, workload.Entries(full[:3]))
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}

		if len(got.Tasks) != len(want.Tasks) {
			t.Fatalf("%s: injected run completed %d tasks, batch %d",
				c.policy, len(got.Tasks), len(want.Tasks))
		}
		wantByID := map[int]*sched.Task{}
		for _, task := range want.Tasks {
			wantByID[task.ID] = task
		}
		for _, task := range got.Tasks {
			w := wantByID[task.ID]
			if w == nil {
				t.Fatalf("%s: injected run produced unknown task %d", c.policy, task.ID)
			}
			if task.Start != w.Start || task.Completion != w.Completion ||
				task.Preemptions != w.Preemptions {
				t.Errorf("%s: task %d diverges: start %d/%d completion %d/%d preemptions %d/%d",
					c.policy, task.ID, task.Start, w.Start,
					task.Completion, w.Completion, task.Preemptions, w.Preemptions)
			}
		}
		if got.Cycles != want.Cycles || got.Wakes != want.Wakes ||
			len(got.Preemptions) != len(want.Preemptions) {
			t.Errorf("%s: run shape diverges: makespan %d/%d wakes %d/%d preemptions %d/%d",
				c.policy, got.Cycles, want.Cycles, got.Wakes, want.Wakes,
				len(got.Preemptions), len(want.Preemptions))
		}
	}
}

// TestInjectionRejectsPastArrival covers the invariant guard: a hook
// releasing a task that "arrives" before the completion that released it
// is a simulation error, not a silently re-timed request.
func TestInjectionRejectsPastArrival(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	set := injectSet(t, gen, 1<<40, 1<<40)
	late := workload.Entries(set[3:4]) // arrival far in the future
	late[0].Arrival = 0                // ...rewritten into the past
	pol, err := sched.ByName("FCFS", scfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{
		NPU: cfg, Sched: scfg, Policy: pol,
		OnComplete: func(done *sched.Task, now int64) []*sched.Task { return late },
	}, workload.Entries(set[:3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("injection with a past arrival should fail the run")
	}
}
