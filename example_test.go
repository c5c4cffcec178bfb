package prema_test

import (
	"fmt"
	"time"

	prema "repro"
)

// The canonical usage: draw a workload, simulate it under PREMA with
// Algorithm 3 dynamic preemption, and read the paper's metrics.
func Example() {
	sys, err := prema.NewSystem()
	if err != nil {
		panic(err)
	}
	tasks, err := sys.Workload(prema.WorkloadSpec{
		Tasks: 4, Models: []string{"CNN-GN"}, BatchSizes: []int{1},
	}, 1)
	if err != nil {
		panic(err)
	}
	res, err := sys.Simulate(prema.Scheduler{
		Policy: prema.PREMA, Preemptive: true, Mechanism: prema.Dynamic,
	}, tasks)
	if err != nil {
		panic(err)
	}
	fmt.Printf("tasks=%d ANTT>=1: %v STP<=4: %v\n",
		len(res.Tasks), res.Metrics.ANTT >= 1, res.Metrics.STP <= 4)
	// Output:
	// tasks=4 ANTT>=1: true STP<=4: true
}

// Comparing two schedulers on one workload: a simulation leaves its
// instances unchanged, so both schedulers run the identical task mix.
func ExampleSystem_Simulate() {
	sys, err := prema.NewSystem()
	if err != nil {
		panic(err)
	}
	tasks, err := sys.Workload(prema.WorkloadSpec{Tasks: 8}, 3)
	if err != nil {
		panic(err)
	}
	antt := func(cfg prema.Scheduler) float64 {
		res, err := sys.Simulate(cfg, tasks)
		if err != nil {
			panic(err)
		}
		return res.Metrics.ANTT
	}
	fcfs := antt(prema.Scheduler{Policy: prema.FCFS})
	premaANTT := antt(prema.Scheduler{
		Policy: prema.PREMA, Preemptive: true, Mechanism: prema.Dynamic,
	})
	fmt.Println("PREMA improves ANTT:", premaANTT < fcfs)
	// Output:
	// PREMA improves ANTT: true
}

// Misconfigurations fail eagerly at Validate instead of being silently
// ignored: a preemption mechanism is meaningless on a non-preemptive
// scheduler.
func ExampleScheduler_Validate() {
	bad := prema.Scheduler{Policy: prema.FCFS, Mechanism: prema.StaticKill}
	fmt.Println("rejected:", bad.Validate() != nil)
	ok := prema.Scheduler{Policy: prema.PREMA, Preemptive: true}
	fmt.Println("accepted:", ok.Validate() == nil)
	// Output:
	// rejected: true
	// accepted: true
}

// Scaling out to a multi-NPU node with the predictive least-work router.
func ExampleSystem_SimulateNode() {
	sys, err := prema.NewSystem()
	if err != nil {
		panic(err)
	}
	tasks, err := sys.Workload(prema.WorkloadSpec{Tasks: 12}, 2)
	if err != nil {
		panic(err)
	}
	res, err := sys.SimulateNode(prema.Node{
		NPUs: 4, Routing: prema.LeastWork,
		Local: prema.Scheduler{Policy: prema.PREMA, Preemptive: true},
	}, tasks)
	if err != nil {
		panic(err)
	}
	fmt.Printf("NPUs=%d completed=%d\n", len(res.PerNPU), len(res.Tasks))
	// Output:
	// NPUs=4 completed=12
}

// Streaming serving: open a Session, drive an open-loop Poisson arrival
// process at 50% utilization, and read steady-state statistics.
func ExampleSystem_Open() {
	sys, err := prema.NewSystem()
	if err != nil {
		panic(err)
	}
	sess, err := sys.Open(prema.SessionConfig{
		Scheduler: prema.Scheduler{Policy: prema.PREMA, Preemptive: true},
		Window:    time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	defer sess.Close()
	if _, err := sess.OfferLoad(0.5, 200*time.Millisecond); err != nil {
		panic(err)
	}
	st, err := sess.Drain()
	if err != nil {
		panic(err)
	}
	fmt.Printf("served>0: %v p99>=p50: %v\n",
		st.Requests > 0, st.P99LatencyMS >= st.P50LatencyMS)
	// Output:
	// served>0: true p99>=p50: true
}

// Custom scheduling policies register once and then work everywhere a
// builtin does.
func ExampleRegisterPolicy() {
	err := prema.RegisterPolicy("EXAMPLE-FCFS", func(prema.SchedConfig) (prema.SchedulingPolicy, error) {
		return exampleFCFS{}, nil
	})
	if err != nil {
		panic(err)
	}
	cfg := prema.Scheduler{Policy: "EXAMPLE-FCFS"}
	fmt.Println("validates:", cfg.Validate() == nil)
	// Output:
	// validates: true
}

// exampleFCFS is the minimal custom policy: first-come, first-served.
type exampleFCFS struct{}

func (exampleFCFS) Name() string        { return "EXAMPLE-FCFS" }
func (exampleFCFS) UsesPredictor() bool { return false }
func (exampleFCFS) Pick(ready []*prema.Task, current *prema.Task, now int64) prema.Decision {
	best := ready[0]
	for _, t := range ready[1:] {
		if t.Arrival < best.Arrival || (t.Arrival == best.Arrival && t.ID < best.ID) {
			best = t
		}
	}
	return prema.Decision{Candidate: best}
}
