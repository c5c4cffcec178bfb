package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/preempt"
	"repro/internal/sched"
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

// clusterLocal is one NPU-local scheduler configuration of the cluster
// sweep.
type clusterLocal struct {
	label      string
	policy     string
	preemptive bool
}

// clusterCell is one (node size x routing policy x local scheduler) cell
// of the cluster sweep.
type clusterCell struct {
	npus    int
	routing cluster.RoutingPolicy
	local   clusterLocal
}

// runCluster sweeps NPU counts, routing policies, and local schedulers
// over a fixed 32-task offered load. The whole (cell x run) cross product
// is flattened into one engine job list — there is no sequential outer
// loop over node sizes or routers — and reduced per cell in run order
// afterwards, so output stays byte-identical to a sequential sweep.
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
	locals := []clusterLocal{
		{"NP-FCFS", "FCFS", false},
		{"Dynamic-PREMA", "PREMA", true},
	}
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

	// One flattened job list: every node-level simulation of every cell
	// is visible to the worker pool at once. The r-th run of every cell
	// regenerates the identical workload (same RNG stream), so cells are
	// compared on the same task mixes; each cluster.Run stays sequential
	// internally (Parallel unset) because the engine already saturates
	// the pool across cells.
	results := make([]*cluster.Result, len(cells)*runs)
	err := s.ForEach(len(results), func(i int) error {
		cell, r := cells[i/runs], i%runs
		rng := workload.RNGFor(s.Seed^0xC105, r)
		ts, err := s.Gen.Generate(workload.Spec{Tasks: tasks}, rng)
		if err != nil {
			return err
		}
		res, err := cluster.Run(cluster.Options{
			NPUs: cell.npus, Routing: cell.routing,
			NPU: s.NPU, Sched: s.Sched,
			LocalPolicy: cell.local.policy, Preemptive: cell.local.preemptive,
			Selector: "dynamic",
		}, ts)
		if err != nil {
			return err
		}
		results[i] = res
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
			sla += metrics.SLAViolationRate(res.Tasks, 4) / runs
			preempts += float64(res.Preemptions) / runs
		}
		t.AddRow(fmt.Sprintf("%d", cell.npus), cell.routing.String(), cell.local.label,
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
		cfgs = append(cfgs, SchedulerConfig{Label: "P-PREMA/" + mech, Policy: "PREMA",
			Preemptive: true, Selector: mech})
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
		var wasted float64
		for _, task := range res.Tasks {
			wasted += float64(task.WastedCycles)
		}
		wasted /= float64(s.Runs)
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
	var baseTotal float64
	for i, cfg := range cfgs {
		const runs = 10
		// Fan the runs out through the engine (fresh policy/selector
		// per run), then reduce the breakdowns in run order.
		perRun := make([]energy.Breakdown, runs)
		err := s.ForEach(runs, func(r int) error {
			policy, err := sched.ByName(cfg.Policy, s.Sched)
			if err != nil {
				return err
			}
			var selector sched.MechanismSelector
			if cfg.Selector != "" {
				if selector, err = sched.SelectorByName(cfg.Selector); err != nil {
					return err
				}
			}
			rng := workload.RNGFor(s.Seed^0xE6E, r)
			tasks, err := s.Gen.Generate(workload.Spec{Tasks: 8}, rng)
			if err != nil {
				return err
			}
			simulator, err := sim.New(sim.Options{
				NPU: s.NPU, Sched: s.Sched, Policy: policy,
				Preemptive: cfg.Preemptive, Selector: selector, Record: true,
			}, workload.Entries(tasks))
			if err != nil {
				return err
			}
			res, err := simulator.Run()
			if err != nil {
				return err
			}
			var costs []preempt.Cost
			for _, ev := range res.Preemptions {
				costs = append(costs, ev.Cost)
			}
			perRun[r] = model.Run(s.NPU, res.Tasks, costs, res.Cycles)
			return nil
		})
		if err != nil {
			return nil, err
		}
		var sum energy.Breakdown
		for _, b := range perRun {
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
