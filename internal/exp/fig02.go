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

	configs := []SchedulerConfig{
		{Label: "(a) NP-FCFS", Spec: sched.Spec{Policy: "FCFS"}},
		{Label: "(b) NP-HPF", Spec: sched.Spec{Policy: "HPF"}},
		preemptive("(c) P-HPF", "HPF", "static-checkpoint"),
		preemptive("(d) P-PREMA", "PREMA", "dynamic"),
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
		res, err := s.simulate(c.Spec, sim.Options{Sched: s.Sched, Record: true}, workload.Entries(tasks))
		if err != nil {
			return nil, err
		}
		byID := map[int]*sched.Task{}
		var avgNTT float64
		for _, task := range res.Tasks {
			byID[task.ID] = task
			avgNTT += task.NTT() / float64(len(res.Tasks))
		}
		t.AddRow(c.Label,
			fmt.Sprintf("%.2f", s.NPU.Millis(byID[1].Turnaround())),
			fmt.Sprintf("%.2f", s.NPU.Millis(byID[2].Turnaround())),
			fmt.Sprintf("%.2f", s.NPU.Millis(byID[3].Turnaround())),
			fmt.Sprintf("%.2f", byID[3].NTT()),
			fmt.Sprintf("%.2f", avgNTT))
		timelines += c.Label + "\n" + res.Timeline.Render(s.NPU, 80) + "\n"
	}
	t.Note += "\n" + timelines
	return []*Table{t}, nil
}
