// Package sched implements PREMA's scheduling framework (Section V): the
// inference task context table (Figure 4), the token-based PREMA
// scheduling policy (Algorithm 2), the dynamic preemption-mechanism
// selection (Algorithm 3), and the comparison policies of the evaluation
// (FCFS, RRB, HPF, TOKEN, SJF).
package sched

import (
	"fmt"

	"repro/internal/npu"
)

// Priority is a user-defined service priority level. The paper assigns
// tokens 1/3/9 for low/medium/high (Table II).
type Priority int

const (
	// Low priority (1 token).
	Low Priority = 1
	// Medium priority (3 tokens).
	Medium Priority = 3
	// High priority (9 tokens).
	High Priority = 9
)

// Priorities lists the three levels in ascending order.
var Priorities = []Priority{Low, Medium, High}

// String names the priority level.
func (p Priority) String() string {
	switch p {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// Tokens returns the initial token grant for the level (Table II maps a
// level's token count to its numeric priority value).
func (p Priority) Tokens() float64 { return float64(p) }

// State is the life-cycle state recorded in the context table.
type State int

const (
	// Waiting: dispatched to the NPU scheduler, in the ready queue.
	Waiting State = iota
	// Running: currently executing on the NPU.
	Running
	// Finished: completed execution.
	Finished
)

// String names the state.
func (s State) String() string {
	switch s {
	case Waiting:
		return "waiting"
	case Running:
		return "running"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Task is one inference request tracked by the scheduler — an entry of
// the inference task context table (Figure 4) together with the compiled
// program and execution cursor the simulator drives.
type Task struct {
	// ID is the TaskID (also the memory-protection ASID, Section IV-A).
	ID int
	// Model is the workload label.
	Model string
	// Batch is the inference batch size.
	Batch int
	// Priority is the user-defined priority level.
	Priority Priority

	// Arrival is the dispatch cycle at which the task entered the NPU
	// task queue.
	Arrival int64
	// EstimatedCycles is the predictor's network-wide latency estimate
	// (Time_estimated in Algorithms 2-3).
	EstimatedCycles int64
	// IsolatedCycles is the true uninterrupted execution time
	// (Time_isolated) at the execution's speed, used for metrics; the
	// scheduler itself only consults EstimatedCycles.
	IsolatedCycles int64

	// Exec is the execution cursor over the compiled program.
	Exec *npu.Execution

	// Token is the scheduling-token balance (Algorithm 2).
	Token float64
	// State is the context-table state field.
	State State

	// Waited accumulates cycles spent in the ready queue.
	Waited int64
	// lastWake is the cycle at which waiting time was last accrued.
	lastWake int64

	// Start is the cycle the task first began executing (-1 before).
	Start int64
	// LastScheduled is the cycle the task most recently began an
	// execution span (-1 before the first dispatch). Unlike Start it is
	// updated on every dispatch, including resumption after a
	// preemption, which is what round-robin recency must order by.
	LastScheduled int64
	// Completion is the cycle the task finished (-1 before).
	Completion int64

	// Preemptions counts how many times the task was preempted.
	Preemptions int
	// CheckpointCycles accumulates checkpoint+restore DMA overhead the
	// task's own context transfers consumed.
	CheckpointCycles int64
	// WastedCycles accumulates executed work discarded by KILL.
	WastedCycles int64
	// SavedBytes is the size of the live checkpointed context while
	// the task is preempted-with-state (0 otherwise).
	SavedBytes int64
	// PendingOverhead is NPU-busy time (context restore) that must be
	// paid before the task's next instruction executes.
	PendingOverhead int64
}

// NewTask initializes a context-table entry. The initial token grant is
// the task's priority level (Algorithm 2, initialization).
func NewTask(id int, model string, batch int, prio Priority, arrival int64, exec *npu.Execution, estimated int64) *Task {
	return &Task{
		ID:              id,
		Model:           model,
		Batch:           batch,
		Priority:        prio,
		Arrival:         arrival,
		EstimatedCycles: estimated,
		IsolatedCycles:  exec.TotalCycles(),
		Exec:            exec,
		Token:           prio.Tokens(),
		State:           Waiting,
		lastWake:        arrival,
		Start:           -1,
		LastScheduled:   -1,
		Completion:      -1,
	}
}

// Executed returns the cycles of useful progress so far.
func (t *Task) Executed() int64 { return t.Exec.Executed() }

// EstimatedRemaining returns Time_estimated - Time_executed, clamped at
// zero (Algorithm 3 lines 1-2). A task that outlives its estimate is
// treated as nearly done.
func (t *Task) EstimatedRemaining() int64 {
	rem := t.EstimatedCycles - t.Executed()
	if rem < 0 {
		return 0
	}
	return rem
}

// AccrueWait adds ready-queue idle time up to now and updates the token
// balance bookkeeping point. Only waiting tasks accrue.
func (t *Task) AccrueWait(now int64) {
	if t.State == Waiting && now > t.lastWake {
		t.Waited += now - t.lastWake
	}
	t.lastWake = now
}

// NormalizedSlowdown is the Slowdown_normalized term of Algorithm 2
// line 7 for the wait accrued since the previous scheduling event: idle
// time relative to the task's estimated isolated execution time. Short
// jobs therefore accumulate tokens faster than long ones.
func (t *Task) NormalizedSlowdown(waitDelta int64) float64 {
	if t.EstimatedCycles <= 0 {
		return 0
	}
	return float64(waitDelta) / float64(t.EstimatedCycles)
}

// MarkRunning transitions the task onto the NPU at cycle now. Start is
// recorded only on the first dispatch; LastScheduled on every dispatch.
func (t *Task) MarkRunning(now int64) {
	t.AccrueWait(now)
	t.State = Running
	if t.Start < 0 {
		t.Start = now
	}
	t.LastScheduled = now
}

// MarkWaiting returns the task to the ready queue at cycle now (after a
// preemption).
func (t *Task) MarkWaiting(now int64) {
	t.State = Waiting
	t.lastWake = now
}

// MarkFinished records completion at cycle now.
func (t *Task) MarkFinished(now int64) {
	t.State = Finished
	t.Completion = now
}

// Turnaround returns the multi-tasked turnaround time C_multi (Equation 1)
// once the task has finished.
func (t *Task) Turnaround() int64 {
	if t.Completion < 0 {
		return -1
	}
	return t.Completion - t.Arrival
}

// NTT returns the normalized turnaround time C_multi / C_single.
func (t *Task) NTT() float64 {
	ta := t.Turnaround()
	if ta < 0 || t.IsolatedCycles <= 0 {
		return 0
	}
	return float64(ta) / float64(t.IsolatedCycles)
}
