// Chaos: declarative fault injection against the streaming serving
// stack. The first half builds a scenario in code — a two-NPU fleet
// with a queue-depth scaler, a failure injected mid-ramp, and
// assertions that the fleet recovers — runs it twice, and shows the
// reports render byte-identically (chaos here is a reproducible
// regression artifact, not a one-off experiment). The second half
// parses the same scenario from its text form, the format the
// scenarios/ corpus and premasim -scenario use, and shows a broken
// assertion reporting FAIL without failing the run.
//
// Run with:
//
//	go run ./examples/chaos
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

	// A scenario constructed in code: one NPU of the starting pair
	// fails at 80ms, and the assertions require the queue-depth scaler
	// to have refilled the fleet by 160ms.
	sc := &prema.Scenario{
		Name:      "code-built-failure",
		Fleet:     prema.ScenarioFleet{Initial: 2, Min: 2, Max: 6},
		Routing:   prema.NodeLeastWork,
		Scheduler: prema.SchedulerSpec{Policy: "PREMA", Preemptive: true},
		Scaler:    "queue-depth",
		SLO:       8 * time.Millisecond,
		Models:    []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"},
		Seed:      7,
		Segment:   40 * time.Millisecond,
		Load:      []float64{0.5, 2, 2, 2, 0.5},
		Events: []prema.ScenarioEvent{
			{At: 80 * time.Millisecond, Op: prema.ChaosOp{Kind: prema.ChaosFail, NPU: 0}},
		},
		Asserts: []prema.ScenarioAssertion{
			{Kind: prema.AssertRecoveredBy, By: 160 * time.Millisecond},
			{Kind: prema.AssertFleetBetween, Lo: 1, Hi: 6, To: 200 * time.Millisecond},
		},
	}
	first, err := sys.RunScenario(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(first.Render())

	second, err := sys.RunScenario(sc)
	if err != nil {
		log.Fatal(err)
	}
	if first.Render() == second.Render() {
		fmt.Println("\nreplay: second run rendered byte-identically")
	} else {
		fmt.Println("\nreplay: DIVERGED (this is a bug)")
	}

	// The same scenario in the declarative text form, with one
	// assertion deliberately impossible: the run still completes and
	// reports — a failed assertion fails the verdict, never the run.
	text := `
scenario text-built-failure
fleet initial=2 min=2 max=6
routing least-work
policy PREMA preemptive
scaler queue-depth slo=8ms
seed 7
segment 40ms
load 0.5 2 2 2 0.5
at 80ms fail npu0
assert recovered_by 160ms
assert slo_violation_frac < 0.0001   # deliberately unattainable
`
	parsed, err := prema.ParseScenario(text)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sys.RunScenario(parsed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(rep.Render())
	fmt.Printf("\nverdict: passed=%v (the broken assertion reports FAIL; the run itself completed)\n", rep.Passed)
}
