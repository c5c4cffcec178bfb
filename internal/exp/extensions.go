package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/preempt"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file registers the experiments that extend the paper: the
// system-node level it scopes out as future work (Section II-C), the
// restart-granularity ablation its footnote 2 permits, and the explicit
// energy accounting behind the Section VI-F argument.

func init() {
	register(Experiment{
		ID:    "cluster",
		Title: "Multi-NPU system node: routing policies x local schedulers (paper future work)",
		Run:   runCluster,
	})
	register(Experiment{
		ID:    "killgranularity",
		Title: "Ablation: KILL restart-from-scratch vs restart-from-layer (footnote 2)",
		Run:   runKillGranularity,
	})
	register(Experiment{
		ID:    "energy",
		Title: "Energy accounting per scheduler (Section VI-F argument quantified)",
		Run:   runEnergy,
	})
}

// clusterCell is one (node size x routing policy x local scheduler) cell
// of the cluster sweep.
type clusterCell struct {
	npus    int
	routing cluster.RoutingPolicy
	local   SchedulerConfig
}

// runCluster sweeps NPU counts, routing policies, and local schedulers
// over a fixed 32-task offered load. Each run's workload is drawn once
// and every cell simulated on it; the results are reduced per cell in
// run order afterwards, so output stays byte-identical to a sequential
// sweep.
func runCluster(s *Suite) ([]*Table, error) {
	const (
		tasks = 32
		runs  = 10
	)
	t := &Table{
		ID:    "cluster",
		Title: "32-task node: ANTT / STP / SLA@4x by NPUs, router, local scheduler",
		Headers: []string{"NPUs", "router", "local scheduler", "ANTT", "STP",
			"SLA viol.@4x", "preemptions/run"},
		Note: "beyond-paper extension: the Algorithm 1 predictor also powers work-balanced routing",
	}
	locals := []SchedulerConfig{NP("FCFS"), DynamicCkpt("PREMA")}
	var cells []clusterCell
	for _, npus := range []int{1, 2, 4} {
		for _, routing := range []cluster.RoutingPolicy{cluster.RoundRobin, cluster.LeastQueued, cluster.LeastWork} {
			if npus == 1 && routing != cluster.RoundRobin {
				continue // routing is moot on a single NPU
			}
			for _, local := range locals {
				cells = append(cells, clusterCell{npus: npus, routing: routing, local: local})
			}
		}
	}

	// One job per run: its workload is drawn once and every cell is
	// simulated on it, so cells are compared on the same task mixes.
	// Results are index-addressed by (cell, run) and reduced per cell in
	// run order afterwards; each cluster.Run stays sequential internally
	// (Parallel unset) because the engine already saturates the pool
	// across runs.
	results := make([]*cluster.Result, len(cells)*runs)
	err := s.ForEach(runs, func(r int) error {
		ts, err := s.Gen.Generate(workload.Spec{Tasks: tasks}, workload.RNGFor(s.Seed^0xC105, r))
		if err != nil {
			return err
		}
		for ci, cell := range cells {
			res, err := cluster.Run(cluster.Options{
				NPUs: cell.npus, Routing: cell.routing,
				NPU: s.NPU, Sched: s.Sched, Local: cell.local.Spec,
			}, ts)
			if err != nil {
				return err
			}
			results[ci*runs+r] = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for ci, cell := range cells {
		var antt, stp, sla, preempts float64
		for r := 0; r < runs; r++ {
			res := results[ci*runs+r]
			antt += res.Metrics.ANTT / runs
			stp += res.Metrics.STP / runs
			sla += metrics.SLAViolationRate(res.Metrics.NTTs, 4) / runs
			preempts += float64(res.Preemptions) / runs
		}
		t.AddRow(fmt.Sprintf("%d", cell.npus), cell.routing.String(), cell.local.Label,
			fmt.Sprintf("%.2f", antt),
			fmt.Sprintf("%.2f", stp),
			fmt.Sprintf("%.1f%%", sla*100),
			fmt.Sprintf("%.1f", preempts))
	}
	return []*Table{t}, nil
}

// runKillGranularity compares the three restart granularities under a
// preemptive HPF scheduler: CHECKPOINT (no re-execution), KILL_LAYER
// (re-execute the in-flight layer), KILL (re-execute from scratch).
func runKillGranularity(s *Suite) ([]*Table, error) {
	t := &Table{
		ID:    "killgranularity",
		Title: "Restart granularity under preemptive scheduling (vs NP-FCFS)",
		Headers: []string{"mechanism", "ANTT imp.", "fairness imp.", "STP imp.",
			"wasted cycles/run (M)"},
		Note: "footnote 2: tile/layer-boundary preemption points allow cheaper kills",
	}
	mechs := []string{"static-checkpoint", "static-kill-layer", "static-kill"}
	cfgs := []SchedulerConfig{NP("FCFS")}
	for _, mech := range mechs {
		cfgs = append(cfgs, preemptive("P-PREMA/"+mech, "PREMA", mech))
	}
	// One engine batch covers the baseline and all three granularities.
	results, err := s.RunConfigs(cfgs, workload.Spec{Tasks: 8}, s.Runs)
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, mech := range mechs {
		res := results[i+1]
		imp := metrics.Relative(res.Agg, base.Agg)
		wasted := float64(res.WastedCycles) / float64(s.Runs)
		t.AddRow(mech,
			fmt.Sprintf("%.2fx", imp.ANTT),
			fmt.Sprintf("%.2fx", imp.Fairness),
			fmt.Sprintf("%.2fx", imp.STP),
			fmt.Sprintf("%.1f", wasted/1e6))
	}
	return []*Table{t}, nil
}

// runEnergy quantifies the Section VI-F argument: total energy per
// scheduler over identical workloads, decomposed into compute, memory,
// static, checkpoint and wasted-work terms.
func runEnergy(s *Suite) ([]*Table, error) {
	model := energy.Default()
	t := &Table{
		ID:    "energy",
		Title: "Energy per 8-task workload (J), averaged over runs",
		Headers: []string{"scheduler", "compute", "DRAM", "SRAM", "static",
			"checkpoint", "wasted", "total", "vs NP-FCFS"},
		Note: "PREMA's checkpoint energy is negligible; KILL pays for re-executed work",
	}
	cfgs := []SchedulerConfig{
		NP("FCFS"),
		DynamicCkpt("PREMA"),
		StaticKill("PREMA"),
	}
	const runs = 10
	// One job per run: its workload is drawn once and simulated under
	// every scheduler (fresh policy and selector each, on the run's one
	// slab of entries refilled), then the breakdowns are reduced per
	// scheduler in run order.
	perRun := make([]energy.Breakdown, len(cfgs)*runs)
	err := s.ForEach(runs, func(r int) error {
		tasks, err := s.Gen.Generate(workload.Spec{Tasks: 8}, workload.RNGFor(s.Seed^0xE6E, r))
		if err != nil {
			return err
		}
		entries := workload.Slab(len(tasks))
		for ci, cfg := range cfgs {
			res, err := s.simulate(cfg.Spec, sim.Options{Sched: s.Sched, Record: true}, workload.Refill(entries, tasks))
			if err != nil {
				return err
			}
			var costs []preempt.Cost
			for _, ev := range res.Preemptions {
				costs = append(costs, ev.Cost)
			}
			perRun[ci*runs+r] = model.Run(s.NPU, res.Tasks, costs, res.Cycles)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var baseTotal float64
	for i, cfg := range cfgs {
		var sum energy.Breakdown
		for _, b := range perRun[i*runs : (i+1)*runs] {
			sum.ComputeJ += b.ComputeJ / runs
			sum.SRAMJ += b.SRAMJ / runs
			sum.DRAMJ += b.DRAMJ / runs
			sum.StaticJ += b.StaticJ / runs
			sum.CheckpointJ += b.CheckpointJ / runs
			sum.WastedJ += b.WastedJ / runs
		}
		if i == 0 {
			baseTotal = sum.Total()
		}
		t.AddRow(cfg.Label,
			fmt.Sprintf("%.3f", sum.ComputeJ),
			fmt.Sprintf("%.3f", sum.DRAMJ),
			fmt.Sprintf("%.3f", sum.SRAMJ),
			fmt.Sprintf("%.3f", sum.StaticJ),
			fmt.Sprintf("%.4f", sum.CheckpointJ),
			fmt.Sprintf("%.4f", sum.WastedJ),
			fmt.Sprintf("%.3f", sum.Total()),
			fmt.Sprintf("%.3fx", sum.Total()/baseTotal))
	}
	return []*Table{t}, nil
}
