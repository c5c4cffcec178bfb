// Package cluster implements the system-node level the paper scopes out
// as future work (Section II-C): a Kubernetes-style router dispatching
// inference requests across multiple preemptible NPUs, each running its
// own local scheduler (NP-FCFS, PREMA, ...). The paper's runtime split is
// preserved exactly: the router decides *which NPU* serves a request; the
// NPU-local scheduler decides *when* it runs and whether it preempts.
//
// Routing policies range from the classic (round robin, least queued) to
// a predictive router that reuses PREMA's inference-time estimates to
// balance actual work rather than request counts — demonstrating that the
// Algorithm 1 predictor composes beyond the single-NPU scheduler.
package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/npu"
	"repro/internal/preempt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// RoutingPolicy selects a target NPU for each arriving request.
type RoutingPolicy int

const (
	// RoundRobin cycles through the NPUs in dispatch order.
	RoundRobin RoutingPolicy = iota
	// LeastQueued routes to the NPU with the fewest requests whose
	// (estimated) work has not yet drained at the arrival instant.
	LeastQueued
	// LeastWork routes to the NPU with the least estimated backlog in
	// cycles — the predictive router built on Algorithm 1's estimates.
	LeastWork
)

// String names the routing policy.
func (p RoutingPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastQueued:
		return "least-queued"
	case LeastWork:
		return "least-work"
	default:
		return fmt.Sprintf("RoutingPolicy(%d)", int(p))
	}
}

// Options configures a cluster run.
type Options struct {
	// NPUs is the accelerator count in the node (>= 1).
	NPUs int
	// Routing selects the router policy.
	Routing RoutingPolicy
	// NPU is the per-accelerator configuration.
	NPU npu.Config
	// Sched is the NPU-local scheduler configuration.
	Sched sched.Config
	// LocalPolicy is the NPU-local scheduling policy label.
	LocalPolicy string
	// Preemptive enables the preemptible-NPU path locally.
	Preemptive bool
	// Selector is the local preemption-mechanism selector label.
	Selector string
	// Parallel bounds how many per-NPU simulations run concurrently;
	// 0 or 1 runs them sequentially. Results are identical either way:
	// the NPUs share no state and outcomes are assembled in NPU order.
	Parallel int
}

// Result aggregates a cluster run.
type Result struct {
	// Metrics are computed across all tasks on all NPUs.
	Metrics metrics.Run
	// Tasks pools the completed tasks.
	Tasks []*sched.Task
	// PerNPU records each accelerator's makespan and task count.
	PerNPU []NPUStats
	// Preemptions counts serviced (non-DRAIN) preemptions clusterwide.
	Preemptions int
}

// NPUStats summarizes one accelerator's share of the run.
type NPUStats struct {
	// Tasks is how many routed tasks the NPU completed.
	Tasks int
	// Makespan is the NPU's completion cycle.
	Makespan int64
	// BusyFrac is the fraction of the makespan the NPU spent executing.
	BusyFrac float64
}

// Route assigns tasks (sorted internally by arrival) to NPUs per the
// routing policy, driving the incremental Router over the whole stream.
// Returns one task list per NPU. The streaming node session makes the
// identical decisions request-by-request through the same Router.
func Route(opt Options, tasks []*workload.Task) ([][]*workload.Task, error) {
	if opt.NPUs <= 0 {
		return nil, fmt.Errorf("cluster: non-positive NPU count %d", opt.NPUs)
	}
	router, err := NewRouter(opt.Routing)
	if err != nil {
		return nil, err
	}
	ordered := append([]*workload.Task(nil), tasks...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Arrival != ordered[j].Arrival {
			return ordered[i].Arrival < ordered[j].Arrival
		}
		return ordered[i].ID < ordered[j].ID
	})

	buckets := make([][]*workload.Task, opt.NPUs)
	st := NewState(opt.NPUs)
	for _, t := range ordered {
		target := router.Decide(t, st)
		buckets[target] = append(buckets[target], t)
		st.Commit(target, t)
	}
	return buckets, nil
}

// Run routes the tasks and simulates every NPU independently (the NPUs
// share no state besides the router's dispatch decision, exactly as in
// the paper's deployment model).
func Run(opt Options, tasks []*workload.Task) (*Result, error) {
	if err := opt.NPU.Validate(); err != nil {
		return nil, err
	}
	// Validate the labels once before fanning out.
	if _, err := sched.ByName(opt.LocalPolicy, opt.Sched); err != nil {
		return nil, err
	}
	sel := opt.Selector
	if opt.Preemptive {
		if sel == "" {
			sel = "dynamic"
		}
		if _, err := sched.SelectorByName(sel); err != nil {
			return nil, err
		}
	}
	buckets, err := Route(opt, tasks)
	if err != nil {
		return nil, err
	}

	// runBucket simulates one NPU's routed tasks. Each bucket gets its
	// own policy and selector instances (policies keep scratch state;
	// see the sched.Policy contract), so buckets may run concurrently.
	runBucket := func(i int) (*sim.Result, error) {
		policy, err := sched.ByName(opt.LocalPolicy, opt.Sched)
		if err != nil {
			return nil, err
		}
		var selector sched.MechanismSelector
		if opt.Preemptive {
			if selector, err = sched.SelectorByName(sel); err != nil {
				return nil, err
			}
		}
		simulator, err := sim.New(sim.Options{
			NPU: opt.NPU, Sched: opt.Sched,
			Policy: policy, Preemptive: opt.Preemptive, Selector: selector,
			Record: true,
		}, workload.Entries(buckets[i]))
		if err != nil {
			return nil, err
		}
		res, err := simulator.Run()
		if err != nil {
			return nil, fmt.Errorf("cluster: NPU %d: %w", i, err)
		}
		return res, nil
	}

	results := make([]*sim.Result, len(buckets))
	errs := make([]error, len(buckets))
	if workers := min(opt.Parallel, len(buckets)); workers > 1 {
		// Claim-counter worker pool (the same shape as exp's engine):
		// spawn min(Parallel, buckets) goroutines that pull the next
		// un-simulated NPU index, rather than one goroutine per bucket.
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		next.Store(-1)
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= len(buckets) {
						return
					}
					if len(buckets[i]) == 0 {
						continue
					}
					results[i], errs[i] = runBucket(i)
				}
			}()
		}
		wg.Wait()
	} else {
		// Mirror the parallel path's run-all-then-report semantics so
		// which error surfaces does not depend on Parallel.
		for i := range buckets {
			if len(buckets[i]) == 0 {
				continue
			}
			results[i], errs[i] = runBucket(i)
		}
	}
	// Report the lowest-indexed failure regardless of execution order.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Assemble in NPU order so parallel output matches sequential.
	out := &Result{PerNPU: make([]NPUStats, opt.NPUs)}
	for i, res := range results {
		if res == nil {
			continue
		}
		out.Tasks = append(out.Tasks, res.Tasks...)
		busy := res.Timeline.BusyCycles()
		stats := NPUStats{Tasks: len(res.Tasks), Makespan: res.Cycles}
		if res.Cycles > 0 {
			stats.BusyFrac = float64(busy) / float64(res.Cycles)
		}
		out.PerNPU[i] = stats
		for _, ev := range res.Preemptions {
			if ev.Cost.Mechanism != preempt.Drain {
				out.Preemptions++
			}
		}
	}
	if len(out.Tasks) == 0 {
		return nil, fmt.Errorf("cluster: no tasks completed")
	}
	m, err := metrics.FromTasks(out.Tasks)
	if err != nil {
		return nil, err
	}
	out.Metrics = m
	return out, nil
}
