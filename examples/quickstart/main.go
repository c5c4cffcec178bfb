// Quickstart: build a PREMA system, inspect the workload, run one
// multi-tenant simulation under the PREMA scheduler with dynamic
// preemption, and print the paper's figures of merit.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	prema "repro"
)

func main() {
	sys, err := prema.NewSystem()
	if err != nil {
		log.Fatal(err)
	}
	cfg := sys.NPU()
	fmt.Printf("NPU: %dx%d systolic array @ %.0f MHz, %.0f GB/s memory\n\n",
		cfg.SW, cfg.SH, cfg.FreqHz/1e6, cfg.MemBWBytesPerSec/1e9)

	// Draw one 8-task workload (the paper's evaluation shape): random
	// models from the suite, random priorities, random arrival times.
	tasks, err := sys.Workload(prema.WorkloadSpec{Tasks: 8}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("workload:")
	for _, t := range tasks {
		fmt.Printf("  task %d: %-8s batch %-2d priority %-6s arrives %6.2f ms (isolated %6.2f ms, predicted %6.2f ms)\n",
			t.ID, t.Model, t.Batch, t.Priority,
			cfg.Millis(t.Arrival), cfg.Millis(t.Program.TotalCycles), cfg.Millis(t.EstimatedCycles))
	}

	// Simulate under the paper's scheduler: token-based PREMA policy
	// with Algorithm 3 dynamic preemption-mechanism selection.
	res, err := sys.Simulate(prema.Scheduler{
		Policy:     prema.PREMA,
		Preemptive: true,
		Mechanism:  prema.Dynamic,
	}, tasks)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nPREMA results: ANTT=%.2f  STP=%.2f  fairness=%.3f  SLA@4x violations=%.0f%%\n",
		res.Metrics.ANTT, res.Metrics.STP, res.Metrics.Fairness,
		res.SLAViolationRate(4)*100)
	fmt.Printf("makespan %.2f ms, %d preemption events\n\n",
		cfg.Millis(res.MakespanCycles), len(res.Preemptions))
	fmt.Println("NPU occupancy timeline:")
	fmt.Print(res.Timeline.Render(cfg, 96))
}
