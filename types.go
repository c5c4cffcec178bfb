package prema

// types.go re-exports the internal substrate types the public API
// surfaces, as type aliases. External callers import only this package:
// the aliases make every value the facade returns — tasks, programs,
// timelines, configurations — fully usable (fields and methods) without
// reaching into internal packages, which is what lets cmd/ and examples/
// build on the facade alone.

import (
	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/dnn"
	"repro/internal/metrics"
	"repro/internal/npu"
	"repro/internal/preempt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

type (
	// NPUConfig is the accelerator configuration (Table I).
	NPUConfig = npu.Config
	// SchedConfig is the scheduler configuration (Table II).
	SchedConfig = sched.Config
	// Task is one inference request as the scheduler tracks it — an
	// inference-task context-table entry (Figure 4). Results expose
	// completed Tasks; custom scheduling policies receive them.
	Task = sched.Task
	// Instance is a generated, compiled task instance: a Task plus its
	// provenance (model, sampled sequence lengths, compiled program).
	Instance = workload.Task
	// Priority is a user-defined service priority level.
	Priority = sched.Priority
	// SchedulingPolicy is the decision interface custom policies
	// implement (see RegisterPolicy).
	SchedulingPolicy = sched.Policy
	// Decision is a policy's recommendation at one scheduler wake-up.
	Decision = sched.Decision
	// MechanismSelector chooses which preemption mechanism services a
	// policy-recommended preemption (see RegisterSelector).
	MechanismSelector = sched.MechanismSelector
	// PreemptionMechanism identifies a preemption mechanism
	// (CHECKPOINT, KILL, KILL-layer, DRAIN).
	PreemptionMechanism = preempt.Mechanism
	// PreemptionEvent is one serviced preemption with its cost
	// breakdown.
	PreemptionEvent = sim.PreemptionEvent
	// Estimator predicts a model instance's execution time (see
	// RegisterEstimator).
	Estimator = workload.Estimator
	// Model is one benchmark DNN of the zoo.
	Model = dnn.Model
	// Program is a compiled NPU program: a pool of layer blocks plus a
	// run table, one {Body, Times} entry per stretch of the instance, so
	// an RNN instance costs a few runs whatever its sequence lengths.
	// Programs compiled for one (model, batch) share their bodies and
	// pool and are immutable; Stream walks the flattened instruction
	// stream that defines the program's behaviour.
	Program = npu.Program
	// Timeline records NPU occupancy spans for rendering.
	Timeline = trace.Timeline
	// Metrics are the Equation 1-2 figures of merit of one run.
	Metrics = metrics.Run
	// NPUStats summarizes one accelerator's share of a node run.
	NPUStats = cluster.NPUStats
	// Scaler is the autoscaling-policy decision interface custom
	// scalers implement (see RegisterScaler).
	Scaler = autoscale.Policy
	// ScalerConfig parameterizes scaler construction (the SLO in
	// milliseconds).
	ScalerConfig = autoscale.Config
	// ScalerMetrics is the per-tick load snapshot a Scaler observes.
	ScalerMetrics = autoscale.Metrics
	// ScaleDelta is a scaler's decision: the signed change in active
	// backend count it wants.
	ScaleDelta = autoscale.Delta
)

// Priority levels (Table II assigns 1/3/9 scheduling tokens).
const (
	Low    = sched.Low
	Medium = sched.Medium
	High   = sched.High
)

// Preemption mechanisms (Section IV).
const (
	Checkpoint = preempt.Checkpoint
	Kill       = preempt.Kill
	KillLayer  = preempt.KillLayer
	Drain      = preempt.Drain
)

// DefaultNPUConfig returns the paper's Table I accelerator
// configuration.
func DefaultNPUConfig() NPUConfig { return npu.DefaultConfig() }

// DefaultSchedConfig returns the paper's Table II scheduler
// configuration.
func DefaultSchedConfig() SchedConfig { return sched.DefaultConfig() }
