// Package prema is the public facade of the PREMA reproduction: a
// preemptible-NPU multi-tenant inference simulator with the predictive
// token-based scheduler of Choi & Rhu, "PREMA: A Predictive Multi-task
// Scheduling Algorithm For Preemptible Neural Processing Units"
// (HPCA 2020).
//
// The API is organized around four pillars:
//
// Typed configuration. Scheduling policies, preemption mechanisms and
// routing policies are typed identifiers with parse helpers and eager
// validation; a System is built with functional options:
//
//	sys, _ := prema.NewSystem()
//	tasks, _ := sys.Workload(prema.WorkloadSpec{Tasks: 8}, 1)
//	res, _ := sys.Simulate(prema.Scheduler{
//	        Policy: prema.PREMA, Preemptive: true, Mechanism: prema.Dynamic,
//	}, tasks)
//	fmt.Println(res.Metrics.ANTT, res.Metrics.STP)
//
// Pluggable registries. RegisterPolicy, RegisterSelector and
// RegisterEstimator add custom scheduling policies, preemption-mechanism
// selectors and execution-time estimators that participate everywhere a
// builtin does — the paper's own policies are pre-registered through the
// same path.
//
// Streaming serving. System.Open returns a Session: an open-loop,
// dynamically batching serving endpoint — the paper's Figure 1 TensorRT
// Inference Server setting — that accepts a sustained request stream and
// answers incremental latency/throughput/SLA statistics. System.OpenNode
// lifts it to a multi-NPU node (the Section II-C deployment model): a
// routing policy streams requests into per-NPU sessions with their own
// local schedulers, reporting per-NPU and aggregate statistics. Both
// surfaces also serve closed-loop client populations (OfferClients),
// sweeping concurrency instead of offered load.
//
// Experiment suite. NewSuite shares one simulation-result cache (and
// optionally an on-disk cache) across every paper experiment run through
// Suite.Run.
//
// The cmd/ tools and examples/ directory are built exclusively on this
// facade and demonstrate the intended usage patterns.
package prema

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/dnn"
	"repro/internal/metrics"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options configures a System; construct it through NewSystem's
// functional options.
type Options struct {
	// NPU is the accelerator configuration (Table I of the paper).
	NPU NPUConfig
	// Sched is the scheduler configuration (Table II).
	Sched SchedConfig
	// ProfileSeed seeds the seq2seq length-characterization corpora.
	ProfileSeed uint64
}

// Option mutates the System configuration at construction.
type Option func(*Options)

// WithNPU overrides the accelerator configuration.
func WithNPU(cfg NPUConfig) Option { return func(o *Options) { o.NPU = cfg } }

// WithSchedConfig overrides the scheduler configuration.
func WithSchedConfig(cfg SchedConfig) Option { return func(o *Options) { o.Sched = cfg } }

// WithQuantum overrides just the scheduling-period time quota.
func WithQuantum(q time.Duration) Option { return func(o *Options) { o.Sched.Quantum = q } }

// WithProfileSeed overrides the sequence-length profile seed.
func WithProfileSeed(seed uint64) Option { return func(o *Options) { o.ProfileSeed = seed } }

// defaults returns the paper's configuration.
func defaults() Options {
	return Options{
		NPU:         npu.DefaultConfig(),
		Sched:       sched.DefaultConfig(),
		ProfileSeed: 0xA11CE,
	}
}

// System is a ready-to-use simulation environment: one NPU
// configuration, a compiled-program cache, the benchmark model zoo, and
// the sequence-length profile library. A System is safe for concurrent
// use.
type System struct {
	opt Options
	gen *workload.Generator
}

// NewSystem builds a System from the paper's defaults plus the given
// options.
func NewSystem(opts ...Option) (*System, error) {
	opt := defaults()
	for _, apply := range opts {
		apply(&opt)
	}
	if err := opt.NPU.Validate(); err != nil {
		return nil, err
	}
	if opt.Sched.Quantum <= 0 {
		return nil, fmt.Errorf("prema: non-positive scheduling quantum %v", opt.Sched.Quantum)
	}
	gen, err := workload.NewGenerator(opt.NPU, opt.ProfileSeed)
	if err != nil {
		return nil, err
	}
	return &System{opt: opt, gen: gen}, nil
}

// NPU returns the accelerator configuration.
func (s *System) NPU() NPUConfig { return s.opt.NPU }

// SchedConfig returns the scheduler configuration.
func (s *System) SchedConfig() SchedConfig { return s.opt.Sched }

// Models returns the benchmark model zoo labels (the eight-model suite
// plus the auxiliary models).
func (s *System) Models() []string { return dnn.Names() }

// WorkloadSpec parameterizes workload generation (the Section III
// methodology).
type WorkloadSpec struct {
	// Tasks is the number of co-scheduled inference requests.
	Tasks int
	// Models restricts the model pool by label; empty selects the
	// paper's eight-model suite.
	Models []string
	// BatchSizes restricts the batch pool; empty selects {1,4,16}.
	BatchSizes []int
	// ArrivalWindow is the dispatch window (default 20ms).
	ArrivalWindow time.Duration
	// Priority pins every task to one level when non-zero; zero draws
	// priorities uniformly at random.
	Priority Priority
	// Estimator selects the execution-time estimator by label: empty
	// or "analytic" is the Algorithm 1 model, "oracle" feeds exact
	// execution times, and RegisterEstimator adds custom labels.
	Estimator string
}

// Workload draws one multi-tasked workload; run seeds the randomness so
// repeated calls with the same run compare schedulers on identical
// mixes.
func (s *System) Workload(spec WorkloadSpec, run int) ([]*Instance, error) {
	est, err := workload.EstimatorByName(spec.Estimator)
	if err != nil {
		return nil, err
	}
	wspec := workload.Spec{
		Tasks:         spec.Tasks,
		BatchSizes:    spec.BatchSizes,
		ArrivalWindow: spec.ArrivalWindow,
		FixedPriority: spec.Priority,
		Estimator:     est,
	}
	for _, name := range spec.Models {
		m, err := dnn.ByName(name)
		if err != nil {
			return nil, err
		}
		wspec.Models = append(wspec.Models, m)
	}
	rng := workload.RNGFor(0xBEEF, run)
	return s.gen.Generate(wspec, rng)
}

// TaskSpec describes one hand-built task instance for scenario
// construction (e.g. the Figure 2 two-task intuition).
type TaskSpec struct {
	// Model is the workload label (see Models).
	Model string
	// Batch is the inference batch size (0 selects 1).
	Batch int
	// Priority is the service level (0 selects Medium).
	Priority Priority
	// Arrival is the dispatch time.
	Arrival time.Duration
}

// Instances compiles concrete task instances from explicit specs, IDs
// assigned in order. run seeds the RNN sequence-length sampling so
// repeated calls with the same run build identical scenarios.
func (s *System) Instances(run int, specs ...TaskSpec) ([]*Instance, error) {
	rng := workload.RNGFor(0x9ced, run)
	out := make([]*Instance, 0, len(specs))
	for i, spec := range specs {
		batch := spec.Batch
		if batch <= 0 {
			batch = 1
		}
		prio := spec.Priority
		if prio == 0 {
			prio = Medium
		}
		inst, err := s.gen.InstanceByName(i, spec.Model, batch, prio,
			s.opt.NPU.Cycles(spec.Arrival), rng)
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}

// Result is the outcome of one simulated multi-tenant run.
type Result struct {
	// Metrics are the Equation 1-2 figures of merit.
	Metrics Metrics
	// Tasks are the completed scheduler entries.
	Tasks []*Task
	// Preemptions are the serviced preemption events.
	Preemptions []PreemptionEvent
	// MakespanCycles is the completion time of the last task.
	MakespanCycles int64
	// Wakes counts scheduler invocations.
	Wakes int64
	// Timeline reconstructs NPU occupancy for rendering.
	Timeline *Timeline
}

// Simulate runs one workload under the given scheduler configuration.
// The simulation builds its own scheduler entries from the instances and
// leaves them unchanged, so the same workload can be simulated under any
// number of configurations.
func (s *System) Simulate(cfg Scheduler, tasks []*Instance) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	policy, err := sched.ByName(string(cfg.Policy), s.opt.Sched)
	if err != nil {
		return nil, err
	}
	var selector MechanismSelector
	if cfg.Preemptive {
		selector, err = sched.SelectorByName(string(cfg.mechanism()))
		if err != nil {
			return nil, err
		}
	}
	simulator, err := sim.New(sim.Options{
		NPU: s.opt.NPU, Sched: s.opt.Sched,
		Policy: policy, Preemptive: cfg.Preemptive, Selector: selector,
		Record: true,
	}, workload.Entries(tasks))
	if err != nil {
		return nil, err
	}
	res, err := simulator.Run()
	if err != nil {
		return nil, err
	}
	m, err := metrics.FromTasks(res.Tasks)
	if err != nil {
		return nil, err
	}
	return &Result{
		Metrics:        m,
		Tasks:          res.Tasks,
		Preemptions:    res.Preemptions,
		MakespanCycles: res.Cycles,
		Wakes:          res.Wakes,
		Timeline:       res.Timeline,
	}, nil
}

// SLAViolationRate reports the fraction of tasks violating an SLA target
// expressed as a multiple of each task's isolated execution time.
func (r *Result) SLAViolationRate(target float64) float64 {
	return metrics.SLAViolationRate(r.Tasks, target)
}

// ServicedPreemptions counts the preemption events that actually
// interrupted a running task (DRAIN lets the runner finish and so does
// not count).
func (r *Result) ServicedPreemptions() int {
	n := 0
	for _, ev := range r.Preemptions {
		if ev.Cost.Mechanism != Drain {
			n++
		}
	}
	return n
}

// NodeResult aggregates a cluster simulation.
type NodeResult struct {
	// Metrics span all tasks on all NPUs.
	Metrics Metrics
	// Tasks pools the completed scheduler entries.
	Tasks []*Task
	// PerNPU summarizes each accelerator's share.
	PerNPU []NPUStats
	// Preemptions counts serviced preemptions clusterwide.
	Preemptions int
}

// SLAViolationRate reports the fraction of tasks violating an SLA target
// expressed as a multiple of each task's isolated execution time.
func (r *NodeResult) SLAViolationRate(target float64) float64 {
	return metrics.SLAViolationRate(r.Tasks, target)
}

// SimulateNode routes the workload across the node's NPUs and simulates
// each accelerator under its local scheduler.
func (s *System) SimulateNode(node Node, tasks []*Instance) (*NodeResult, error) {
	if err := node.Validate(); err != nil {
		return nil, err
	}
	routing, err := node.Routing.toCluster()
	if err != nil {
		return nil, err
	}
	parallel := node.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	res, err := cluster.Run(cluster.Options{
		NPUs: node.NPUs, Routing: routing,
		NPU: s.opt.NPU, Sched: s.opt.Sched,
		LocalPolicy: string(node.Local.Policy),
		Preemptive:  node.Local.Preemptive,
		Selector:    string(node.Local.mechanism()),
		Parallel:    parallel,
	}, tasks)
	if err != nil {
		return nil, err
	}
	return &NodeResult{
		Metrics:     res.Metrics,
		Tasks:       res.Tasks,
		PerNPU:      res.PerNPU,
		Preemptions: res.Preemptions,
	}, nil
}

// Version identifies the reproduction release.
const Version = "2.0.0"
