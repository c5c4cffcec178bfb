package exp

import (
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Scheduling timelines of the motivating three-task scenario (Figure 2)",
		Run:   runFig2,
	})
}

// runFig2 regenerates Figure 2 from live simulations: three inference
// tasks — a long low-priority I1, a short low-priority I2, and a
// high-priority I3 arriving last — scheduled under (a) NP-FCFS,
// (b) NP-HPF, (c) P-HPF with CHECKPOINT, and (d) PREMA with Algorithm 3.
// The table reports each task's turnaround; the rendered timelines are
// attached in the Note for visual comparison with the paper's figure.
func runFig2(s *Suite) ([]*Table, error) {
	build := func() ([]*workload.Task, error) {
		rng := workload.RNGFor(s.Seed^0xF02, 1)
		// I1: long, low priority, arrives first.
		i1, err := s.Gen.InstanceByName(1, "CNN-VN", 16, sched.Low, 0, rng)
		if err != nil {
			return nil, err
		}
		// I2: short, low priority, arrives while I1 runs.
		i2, err := s.Gen.InstanceByName(2, "CNN-GN", 1, sched.Low,
			s.NPU.Cycles(3*time.Millisecond), rng)
		if err != nil {
			return nil, err
		}
		// I3: high priority, arrives last.
		i3, err := s.Gen.InstanceByName(3, "CNN-AN", 1, sched.High,
			s.NPU.Cycles(6*time.Millisecond), rng)
		if err != nil {
			return nil, err
		}
		return []*workload.Task{i1, i2, i3}, nil
	}

	configs := []struct {
		label      string
		policy     string
		preemptive bool
		selector   string
	}{
		{"(a) NP-FCFS", "FCFS", false, ""},
		{"(b) NP-HPF", "HPF", false, ""},
		{"(c) P-HPF", "HPF", true, "static-checkpoint"},
		{"(d) P-PREMA", "PREMA", true, "dynamic"},
	}

	t := &Table{
		ID:    "fig2",
		Title: "Turnaround (ms) of I1 (long, low) / I2 (short, low) / I3 (high)",
		Headers: []string{"scheduler", "I1 (ms)", "I2 (ms)", "I3 (ms)",
			"I3 NTT", "avg NTT"},
		Note: "(c) cuts I3's latency via preemption; (d) additionally slips the short I2 in early",
	}
	var timelines string
	for _, c := range configs {
		tasks, err := build()
		if err != nil {
			return nil, err
		}
		policy, err := sched.ByName(c.policy, s.Sched)
		if err != nil {
			return nil, err
		}
		var sel sched.MechanismSelector
		if c.selector != "" {
			if sel, err = sched.SelectorByName(c.selector); err != nil {
				return nil, err
			}
		}
		simulator, err := sim.New(sim.Options{
			NPU: s.NPU, Sched: s.Sched, Policy: policy,
			Preemptive: c.preemptive, Selector: sel, Record: true,
		}, workload.Entries(tasks))
		if err != nil {
			return nil, err
		}
		res, err := simulator.Run()
		if err != nil {
			return nil, err
		}
		byID := map[int]*sched.Task{}
		var avgNTT float64
		for _, task := range res.Tasks {
			byID[task.ID] = task
			avgNTT += task.NTT() / float64(len(res.Tasks))
		}
		t.AddRow(c.label,
			fmt.Sprintf("%.2f", s.NPU.Millis(byID[1].Turnaround())),
			fmt.Sprintf("%.2f", s.NPU.Millis(byID[2].Turnaround())),
			fmt.Sprintf("%.2f", s.NPU.Millis(byID[3].Turnaround())),
			fmt.Sprintf("%.2f", byID[3].NTT()),
			fmt.Sprintf("%.2f", avgNTT))
		timelines += c.label + "\n" + res.Timeline.Render(s.NPU, 80) + "\n"
	}
	t.Note += "\n" + timelines
	return []*Table{t}, nil
}
