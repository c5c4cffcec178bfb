// Package metrics computes the multi-program performance metrics the
// paper adopts from Eyerman & Eeckhout (Equations 1-2): normalized
// turnaround time (NTT) and its average (ANTT), system throughput (STP),
// and priority-weighted fairness — plus the SLA-violation and tail-latency
// measures of Section VI-C.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// Run summarizes one multi-tasked simulation: everything a finished run
// leaves behind for the paper's figures of merit.
type Run struct {
	// ANTT is the average normalized turnaround time (lower is better).
	ANTT float64
	// STP is the system throughput (higher is better; at most n).
	STP float64
	// Fairness is min_{i,j} PP_i / PP_j (Equation 2; higher is better,
	// 1.0 is perfectly proportional progress).
	Fairness float64
	// NTTs are the per-task normalized turnaround times, in task order;
	// SLAViolationRate counts over them.
	NTTs []float64
	// WastedCycles sums the tasks' KILL re-execution cycles.
	WastedCycles int64
}

// FromTasks derives the Run metrics from completed context-table entries.
func FromTasks(tasks []*sched.Task) (Run, error) {
	if len(tasks) == 0 {
		return Run{}, fmt.Errorf("metrics: no tasks")
	}
	var run Run
	var prioritySum float64
	for _, t := range tasks {
		if t.Completion < 0 {
			return Run{}, fmt.Errorf("metrics: task %d (%s) did not complete", t.ID, t.Model)
		}
		if t.IsolatedCycles <= 0 {
			return Run{}, fmt.Errorf("metrics: task %d has non-positive isolated time", t.ID)
		}
		prioritySum += t.Priority.Tokens()
	}
	minPP, maxPP := math.Inf(1), math.Inf(-1)
	for _, t := range tasks {
		ntt := t.NTT()
		run.NTTs = append(run.NTTs, ntt)
		run.WastedCycles += t.WastedCycles
		run.ANTT += ntt
		run.STP += 1 / ntt
		pp := (1 / ntt) / (t.Priority.Tokens() / prioritySum)
		if pp < minPP {
			minPP = pp
		}
		if pp > maxPP {
			maxPP = pp
		}
	}
	run.ANTT /= float64(len(tasks))
	run.Fairness = minPP / maxPP
	return run, nil
}

// SLAViolationRate returns the fraction of normalized turnaround times
// above target: the tasks whose turnaround exceeded target x their
// isolated execution time (Section VI-C's Time_isolated x N definition).
func SLAViolationRate(ntts []float64, target float64) float64 {
	if len(ntts) == 0 {
		return 0
	}
	violated := 0
	for _, ntt := range ntts {
		if ntt > target {
			violated++
		}
	}
	return float64(violated) / float64(len(ntts))
}

// Aggregate averages Run metrics across repeated simulation runs (the
// paper reports means over 25 runs per configuration).
type Aggregate struct {
	Runs     int
	ANTT     float64
	STP      float64
	Fairness float64
}

// Averaged aggregates the per-run metrics.
func Averaged(runs []Run) Aggregate {
	agg := Aggregate{Runs: len(runs)}
	if len(runs) == 0 {
		return agg
	}
	for _, r := range runs {
		agg.ANTT += r.ANTT
		agg.STP += r.STP
		agg.Fairness += r.Fairness
	}
	n := float64(len(runs))
	agg.ANTT /= n
	agg.STP /= n
	agg.Fairness /= n
	return agg
}

// Improvement expresses a policy's aggregate relative to a baseline the
// way the paper's figures do: ANTT improves when it shrinks, STP and
// fairness improve when they grow.
type Improvement struct {
	ANTT     float64
	STP      float64
	Fairness float64
}

// Relative computes the improvement of agg over base.
func Relative(agg, base Aggregate) Improvement {
	imp := Improvement{}
	if agg.ANTT > 0 {
		imp.ANTT = base.ANTT / agg.ANTT
	}
	if base.STP > 0 {
		imp.STP = agg.STP / base.STP
	}
	if base.Fairness > 0 {
		imp.Fairness = agg.Fairness / base.Fairness
	}
	return imp
}
