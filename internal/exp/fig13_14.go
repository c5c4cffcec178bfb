package exp

import (
	"fmt"
	"math"
	"repro/internal/stats"

	"repro/internal/dnn"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "SLA violation rate as a function of SLA target and policy",
		Run:   runFig13,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "95th-percentile tail latency of high-priority tasks (batch 1)",
		Run:   runFig14,
	})
}

// fig13Policies are the nine configurations of Figure 13.
func fig13Policies() []SchedulerConfig {
	return []SchedulerConfig{
		NP("FCFS"), NP("HPF"), NP("PREMA"),
		StaticCkpt("HPF"), StaticCkpt("SJF"), StaticCkpt("PREMA"),
		DynamicCkpt("HPF"), DynamicCkpt("SJF"), DynamicCkpt("PREMA"),
	}
}

// runFig13 regenerates Figure 13: the fraction of SLA-violated tasks
// across all inference requests as the SLA target N (multiples of
// Time_isolated) sweeps from 2 to 20.
func runFig13(s *Suite) ([]*Table, error) {
	targets := []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	headers := []string{"SLA target (xTime_isolated)"}
	cfgs := fig13Policies()
	for _, c := range cfgs {
		headers = append(headers, c.Label)
	}
	t := &Table{
		ID:      "fig13",
		Title:   "SLA violation rate (%) for all tasks vs SLA target",
		Headers: headers,
		Note:    "PREMA stays below 10% beyond N=4 (NP-FCFS: ~36% at tight targets); monotonically decreasing",
	}
	results, err := s.RunConfigs(cfgs, workload.Spec{Tasks: 8}, s.Runs)
	if err != nil {
		return nil, err
	}
	for _, target := range targets {
		row := []string{fmt.Sprintf("%.0f", target)}
		for _, r := range results {
			rate := metrics.SLAViolationRate(r.NTTs, target)
			row = append(row, fmt.Sprintf("%.1f", rate*100))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// runFig14 regenerates Figure 14: for each benchmark, a high-priority
// batch-1 probe task co-scheduled with 7 random competitor tasks; the
// 95th-percentile turnaround of the probe is compared across Isolated,
// NP-FCFS, preemptive SJF and PREMA.
func runFig14(s *Suite) ([]*Table, error) {
	cfgs := []SchedulerConfig{
		NP("FCFS"),
		StaticCkpt("SJF"),
		DynamicCkpt("PREMA"),
	}
	const runs = 40 // tail percentiles need more samples than mean metrics

	t := &Table{
		ID:    "fig14",
		Title: "95%-ile latency (ms) of high-priority tasks, batch 1",
		Headers: []string{"model", "Isolated", "NP-FCFS", "P-SJF", "PREMA",
			"FCFS/iso", "PREMA/iso"},
		Note: "NP-FCFS up to 85x (avg 21x) over isolated; PREMA ~1.4x isolated on average",
	}

	var sumFCFS, sumPREMA float64
	var nModels float64
	for _, m := range dnn.Suite() {
		// One job per run: the probe, its 7 competitors and the probe's
		// arrival are drawn once, in that order, and feed the isolated
		// sample and every scheduler. The probe's isolated time varies
		// only for RNNs (sampled lengths), so the isolated 95th
		// percentile is measured over every run's probe. Both series
		// are index-addressed so they keep their sequential run order.
		isoSamples := make([]float64, runs)
		turns := make([]float64, len(cfgs)*runs)
		err := s.ForEach(runs, func(r int) error {
			rng := workload.RNGFor(s.Seed^0xF14, r*1000+hash8(m.Name))
			// The probe takes ID 100 so IDs stay unique.
			probe, err := s.Gen.Instance(100, m, 1, sched.High, 0, nil, rng)
			if err != nil {
				return err
			}
			isoSamples[r] = float64(probe.Program.TotalCycles)
			competitors, err := s.Gen.Generate(workload.Spec{Tasks: 7, BatchSizes: []int{1}}, rng)
			if err != nil {
				return err
			}
			// The probe arrives mid-window to experience queueing. Its
			// entry is built at arrival 0 and then moved, on every
			// refill, which keeps a known defect of these tables: the
			// entry's last token-wait accrual is stamped at arrival 0,
			// so under PREMA the probe accrues token wait from cycle 0,
			// not from its arrival. Built at its arrival, premabench
			// -exp fig14 -runs 2 reads PREMA/iso 1.6x instead of 1.5x on
			// average (CNN-AN 1.7x instead of 1.2x, CNN-MN 1.6x instead
			// of 1.0x); mending it changes the paper-sweep golden
			// digests (ROADMAP, benchmark upkeep).
			arrival := rng.Int64N(int64(10e-3 * s.NPU.FreqHz))
			tasks := append(competitors, probe)
			entries := workload.Slab(len(tasks))
			for ci, cfg := range cfgs {
				workload.Refill(entries, tasks)
				entries[len(entries)-1].Arrival = arrival
				res, err := s.simulate(cfg.Spec, sim.Options{Sched: s.Sched}, entries)
				if err != nil {
					return err
				}
				found := false
				for _, task := range res.Tasks {
					if task.ID == 100 {
						turns[ci*runs+r], found = float64(task.Turnaround()), true
					}
				}
				if !found {
					return fmt.Errorf("fig14: probe task missing from %s run %d", cfg.Label, r)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		iso := percentile95(isoSamples)
		tails := make([]float64, len(cfgs))
		for ci := range cfgs {
			tails[ci] = percentile95(turns[ci*runs : (ci+1)*runs])
		}
		t.AddRow(m.Name,
			fmt.Sprintf("%.2f", s.NPU.Millis(int64(iso))),
			fmt.Sprintf("%.2f", s.NPU.Millis(int64(tails[0]))),
			fmt.Sprintf("%.2f", s.NPU.Millis(int64(tails[1]))),
			fmt.Sprintf("%.2f", s.NPU.Millis(int64(tails[2]))),
			fmt.Sprintf("%.1fx", tails[0]/iso),
			fmt.Sprintf("%.1fx", tails[2]/iso))
		sumFCFS += tails[0] / iso
		sumPREMA += tails[2] / iso
		nModels++
	}
	t.AddRow("Average", "", "", "", "",
		fmt.Sprintf("%.1fx", sumFCFS/nModels),
		fmt.Sprintf("%.1fx", sumPREMA/nModels))
	return []*Table{t}, nil
}

func percentile95(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Percentile(xs, 95)
}

func hash8(s string) int {
	h := 0
	for i := 0; i < len(s); i++ {
		h = h*31 + int(s[i])
	}
	if h < 0 {
		h = -h
	}
	return h % 997
}
