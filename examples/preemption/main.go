// Preemption: reproduces the Figure 2 intuition on a concrete scenario —
// a long low-priority inference interrupted by a short high-priority
// request — under the four scheduler/mechanism combinations the paper
// contrasts: NP-FCFS, NP-HPF, P-HPF (checkpoint) and PREMA with dynamic
// mechanism selection. Each run renders the NPU occupancy timeline so
// the preemption behaviour is directly visible.
//
// Run with:
//
//	go run ./examples/preemption
package main

import (
	"fmt"
	"log"
	"time"

	prema "repro"
)

func main() {
	sys, err := prema.NewSystem()
	if err != nil {
		log.Fatal(err)
	}
	cfg := sys.NPU()

	// The Figure 2 cast: I1 = long low-priority (VGGNet b16),
	// I2 = short low-priority (GoogLeNet b1), I3 = high-priority
	// arriving mid-execution (AlexNet b1). A simulation leaves the
	// instances unchanged, so every scheduler runs the same scenario.
	tasks, err := sys.Instances(1,
		prema.TaskSpec{Model: "CNN-VN", Batch: 16, Priority: prema.Low},
		prema.TaskSpec{Model: "CNN-GN", Batch: 1, Priority: prema.Low,
			Arrival: 2 * time.Millisecond},
		prema.TaskSpec{Model: "CNN-AN", Batch: 1, Priority: prema.High,
			Arrival: 5 * time.Millisecond},
	)
	if err != nil {
		log.Fatal(err)
	}

	configs := []struct {
		label string
		cfg   prema.Scheduler
	}{
		{"(a) NP-FCFS", prema.Scheduler{Policy: prema.FCFS}},
		{"(b) NP-HPF", prema.Scheduler{Policy: prema.HPF}},
		{"(c) P-HPF + CHECKPOINT", prema.Scheduler{Policy: prema.HPF,
			Preemptive: true, Mechanism: prema.StaticCheckpoint}},
		{"(d) P-PREMA + dynamic", prema.Scheduler{Policy: prema.PREMA,
			Preemptive: true, Mechanism: prema.Dynamic}},
	}
	for _, c := range configs {
		res, err := sys.Simulate(c.cfg, tasks)
		if err != nil {
			log.Fatal(err)
		}
		var hiNTT float64
		for _, t := range res.Tasks {
			if t.Priority == prema.High {
				hiNTT = t.NTT()
			}
		}
		fmt.Printf("%s   ANTT=%.2f  high-priority NTT=%.2f  STP=%.2f\n",
			c.label, res.Metrics.ANTT, hiNTT, res.Metrics.STP)
		fmt.Print(res.Timeline.Render(cfg, 90))
		fmt.Println()
	}
	fmt.Println("Preemption lets the high-priority task (I3) finish early; PREMA additionally")
	fmt.Println("lets the short low-priority task (I2) slip in, minimizing average latency.")
}
