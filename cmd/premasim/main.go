// Command premasim runs one multi-tenant NPU simulation and prints the
// per-task outcomes, the Equation 1-2 metrics, preemption statistics and
// an ASCII occupancy timeline (a Figure 2-style view).
//
// Usage:
//
//	premasim -policy PREMA -preemptive -mechanism dynamic -tasks 8 -seed 3
//	premasim -policy FCFS -tasks 8
//	premasim -npus 4 -routing least-work -policy PREMA -preemptive
//	premasim -autoscale queue-depth -slo 8ms -min-npus 1 -max-npus 4
//	premasim -scenario scenarios/single-failure.txt
//
// With -scenario the command executes a declarative chaos scenario
// (fleet, scheduler, load ramp, fault injections, assertions — see the
// scenarios/ corpus), prints the annotated fleet timeline with the
// assertion verdicts, and exits non-zero if any assertion failed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	prema "repro"
)

func main() {
	c, err := parseCLI(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fatal(err)
	}

	if c.scenario != "" {
		runScenario(c)
		return
	}

	sys, err := prema.NewSystem(prema.WithQuantum(c.quantum))
	if err != nil {
		fatal(err)
	}
	cfg := sys.NPU()

	policy, err := prema.ParsePolicy(c.policy)
	if err != nil {
		fatal(err)
	}
	// Forward -mechanism whenever the user set it explicitly, so a
	// mechanism without -preemptive is rejected by Validate instead of
	// being silently ignored (the flag's default only applies to
	// preemptive runs).
	sched := prema.Scheduler{Policy: policy, Preemptive: c.preemptive}
	if c.preemptive || c.set["mechanism"] {
		if sched.Mechanism, err = prema.ParseMechanism(c.mechanism); err != nil {
			fatal(err)
		}
	}
	if err := sched.Validate(); err != nil {
		fatal(err)
	}

	if c.autoscale != "" {
		route, err := prema.ParseRouting(c.routing)
		if err != nil {
			fatal(err)
		}
		runAutoscale(sys, prema.NodeSessionConfig{
			NPUs: c.npus, Routing: route, Scheduler: sched,
			// The light interactive mix: single-digit-millisecond SLOs
			// are unattainable for the heavy translation/ASR RNNs at any
			// fleet size.
			Models:  []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"},
			Horizon: c.serveHorizon, Seed: uint64(c.seed), Fleet: c.fleet,
			Autoscale: &prema.AutoscaleConfig{
				Scaler: c.autoscale, SLO: c.slo,
				MinNPUs: c.minNPUs, MaxNPUs: c.maxNPUs,
			},
		}, c.serveHorizon)
		return
	}

	if c.clients > 0 {
		route, err := prema.ParseRouting(c.routing)
		if err != nil {
			fatal(err)
		}
		runClosedLoop(sys, prema.NodeSessionConfig{
			NPUs: c.npus, Routing: route, Scheduler: sched,
			Horizon: c.serveHorizon, Seed: uint64(c.seed), Fleet: c.fleet,
		}, c.clients, c.think, c.serveHorizon)
		return
	}

	spec := prema.WorkloadSpec{
		Tasks:         c.tasks,
		ArrivalWindow: time.Duration(c.windowMS) * time.Millisecond,
	}
	if c.batch > 0 {
		spec.BatchSizes = []int{c.batch}
	}
	if c.oracle {
		spec.Estimator = "oracle"
	}
	tasks, err := sys.Workload(spec, c.seed)
	if err != nil {
		fatal(err)
	}

	if c.npus > 1 {
		route, err := prema.ParseRouting(c.routing)
		if err != nil {
			fatal(err)
		}
		runNode(sys, prema.Node{
			NPUs: c.npus, Routing: route, Local: sched, Parallel: c.parallel,
		}, tasks)
		return
	}

	res, err := sys.Simulate(sched, tasks)
	if err != nil {
		fatal(err)
	}

	mech := "none"
	if c.preemptive {
		mech = sched.Mechanism.String()
	}
	fmt.Printf("policy=%s preemptive=%v mechanism=%s tasks=%d makespan=%.2fms wakes=%d preemptions=%d\n\n",
		policy, c.preemptive, mech, c.tasks,
		cfg.Millis(res.MakespanCycles), res.Wakes, res.ServicedPreemptions())

	fmt.Printf("%-4s %-8s %-4s %-8s %-10s %-10s %-10s %-8s %-6s\n",
		"id", "model", "bat", "prio", "arrive(ms)", "isolated", "turnaround", "NTT", "preempt")
	for _, t := range res.Tasks {
		fmt.Printf("%-4d %-8s b%-3d %-8s %-10.2f %-10.2f %-10.2f %-8.2f %-6d\n",
			t.ID, t.Model, t.Batch, t.Priority,
			cfg.Millis(t.Arrival), cfg.Millis(t.IsolatedCycles),
			cfg.Millis(t.Turnaround()), t.NTT(), t.Preemptions)
	}

	fmt.Printf("\nANTT=%.2f  STP=%.2f  fairness=%.3f  SLA@4x=%.0f%%  SLA@8x=%.0f%%\n",
		res.Metrics.ANTT, res.Metrics.STP, res.Metrics.Fairness,
		res.SLAViolationRate(4)*100, res.SLAViolationRate(8)*100)

	if c.timeline {
		fmt.Println()
		fmt.Print(res.Timeline.Render(cfg, 100))
	}
}

// runScenario executes one declarative chaos scenario file and prints
// its report; a failed assertion exits non-zero. -report-json and
// -report-html export the run through the shared RunReport schema —
// the same shape premactl sessions emit — and -trace-jsonl attaches
// telemetry and exports the per-request trace plus tick metrics as
// sorted JSONL (byte-identical across replays of the same scenario).
func runScenario(c *cli) {
	src, err := os.ReadFile(c.scenario)
	if err != nil {
		fatal(err)
	}
	sc, err := prema.ParseScenario(string(src))
	if err != nil {
		fatal(err)
	}
	sys, err := prema.NewSystem()
	if err != nil {
		fatal(err)
	}
	var tr *prema.Telemetry
	if c.traceJSONL != "" {
		tr = prema.NewTelemetry()
	}
	rep, err := sys.RunScenarioTraced(sc, tr)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.Render())
	if c.traceJSONL != "" {
		lines, err := prema.EncodeTraceJSONL(rep.Events, rep.Samples)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(c.traceJSONL, lines, 0o644); err != nil {
			fatal(err)
		}
	}
	if c.reportJSON != "" || c.reportHTML != "" {
		run := prema.ReportFromScenario(rep)
		if c.reportJSON != "" {
			js, err := run.JSON()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(c.reportJSON, append(js, '\n'), 0o644); err != nil {
				fatal(err)
			}
		}
		if c.reportHTML != "" {
			page, err := run.HTML()
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(c.reportHTML, page, 0o644); err != nil {
				fatal(err)
			}
		}
	}
	if !rep.Passed {
		os.Exit(1)
	}
}

// runAutoscale drives an elastic node session through a diurnal load
// ramp (0.4x -> 3x a single NPU's capacity and back, in five equal
// segments) and prints the scaling timeline next to the served
// statistics.
func runAutoscale(sys *prema.System, cfg prema.NodeSessionConfig, horizon time.Duration) {
	ramp := []float64{0.4, 1.5, 3.0, 1.5, 0.4}
	segment := horizon / time.Duration(len(ramp))
	ns, err := sys.OpenNode(cfg)
	if err != nil {
		fatal(err)
	}
	defer ns.Close() //premalint:ignore errdrop teardown after Drain already surfaced the session's stats; Close failures have nothing left to corrupt
	n, err := ns.OfferRamp(ramp, segment)
	if err != nil {
		fatal(err)
	}
	st, err := ns.Drain()
	if err != nil {
		fatal(err)
	}
	a := cfg.Autoscale
	fmt.Printf("autoscaling node: scaler=%s slo=%v fleet=[%d,%d] start=%d, %s routing, local %s\n",
		a.Scaler, a.SLO, a.MinNPUs, a.MaxNPUs, cfg.NPUs, cfg.Routing, cfg.Scheduler.Policy)
	fmt.Printf("load ramp: %v x %v segments, %d requests\n\n", ramp, segment, n)

	fmt.Println("scaling timeline:")
	for _, e := range st.Scaling.Events {
		bar := strings.Repeat("#", e.NPUs)
		if e.Delta == 0 {
			fmt.Printf("  %8.2fms  %-8s %s (start)\n", e.AtMS, fmt.Sprintf("%d NPUs", e.NPUs), bar)
			continue
		}
		fmt.Printf("  %8.2fms  %-8s %s (%+d)\n", e.AtMS, fmt.Sprintf("%d NPUs", e.NPUs), bar, e.Delta)
	}
	fmt.Printf("\nfleet: mean %.2f NPUs, peak %d, %d scale events\n",
		st.Scaling.MeanNPUs, st.Scaling.PeakNPUs, len(st.Scaling.Events)-1)
	fmt.Printf("latency: mean %.2fms  p50 %.2fms  p95 %.2fms  (SLO %.1fms)\n",
		st.MeanLatencyMS, st.P50LatencyMS, st.P95LatencyMS, st.Scaling.SLOLatencyMS)
	fmt.Printf("SLO violations: %.1f%% of measured requests\n", st.Scaling.SLOViolationFrac*100)
	fmt.Printf("per-NPU requests: %v\n", ns.Routed())
}

// runClosedLoop drives the streaming node session under a closed-loop
// client population and prints per-NPU plus aggregate statistics.
func runClosedLoop(sys *prema.System, cfg prema.NodeSessionConfig,
	clients int, think, horizon time.Duration) {

	ns, err := sys.OpenNode(cfg)
	if err != nil {
		fatal(err)
	}
	defer ns.Close() //premalint:ignore errdrop teardown after Drain already surfaced the session's stats; Close failures have nothing left to corrupt
	n, err := ns.OfferClients(clients, think, horizon)
	if err != nil {
		fatal(err)
	}
	st, err := ns.Drain()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("node: %d NPUs, %s routing, local %s (preemptive=%v)\n",
		cfg.NPUs, cfg.Routing, cfg.Scheduler.Policy, cfg.Scheduler.Preemptive)
	fmt.Printf("closed loop: %d clients, %v think, %v horizon, %d requests realized\n\n",
		clients, think, horizon, n)
	fmt.Printf("%-5s %-9s %10s %10s %10s %10s %10s\n",
		"NPU", "requests", "req/s", "mean(ms)", "p50(ms)", "p99(ms)", "SLA@4x")
	for i, per := range st.PerNPU {
		fmt.Printf("%-5d %-9d %10.0f %10.2f %10.2f %10.2f %9.0f%%\n",
			i, per.Requests, per.ThroughputPerSec, per.MeanLatencyMS,
			per.P50LatencyMS, per.P99LatencyMS, per.SLAViolations4x*100)
	}
	fmt.Printf("%-5s %-9d %10.0f %10.2f %10.2f %10.2f %9.0f%%\n",
		"node", st.Requests, st.ThroughputPerSec, st.MeanLatencyMS,
		st.P50LatencyMS, st.P99LatencyMS, st.SLAViolations4x*100)
}

// runNode drives the multi-NPU node path.
func runNode(sys *prema.System, node prema.Node, tasks []*prema.Instance) {
	res, err := sys.SimulateNode(node, tasks)
	if err != nil {
		fatal(err)
	}
	cfg := sys.NPU()
	fmt.Printf("node: %d NPUs, %s routing, local %s (preemptive=%v)\n\n",
		node.NPUs, node.Routing, node.Local.Policy, node.Local.Preemptive)
	fmt.Printf("%-5s %-6s %-13s %-10s\n", "NPU", "tasks", "makespan(ms)", "busy")
	for i, s := range res.PerNPU {
		fmt.Printf("%-5d %-6d %-13.2f %3.0f%%\n",
			i, s.Tasks, cfg.Millis(s.Makespan), s.BusyFrac*100)
	}
	fmt.Printf("\nANTT=%.2f  STP=%.2f  fairness=%.3f  preemptions=%d  SLA@4x=%.0f%%\n",
		res.Metrics.ANTT, res.Metrics.STP, res.Metrics.Fairness, res.Preemptions,
		res.SLAViolationRate(4)*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "premasim:", err)
	os.Exit(1)
}
