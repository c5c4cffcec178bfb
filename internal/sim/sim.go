// Package sim is the discrete-event multi-tenant NPU simulator. It drives
// a scheduling policy and a preemption-mechanism selector over a set of
// dispatched inference tasks, modelling arrivals, the scheduling-period
// quantum (Table II), preemption boundaries, checkpoint/restore DMA
// latencies, and KILL re-execution, and records the per-task outcomes the
// metrics pipeline consumes.
//
// The scheduler wakes under the paper's three conditions (Section V-C):
// a new task arrives, the running task completes, or the scheduling
// period elapses. So the schedule before cycle t never depends on a task
// arriving at or after t, and the simulator is resumable:
//
//   - Admit adds tasks arriving at or after the last bound.
//   - AdvanceTo(bound) runs every event strictly before bound, and
//     nothing else. The scheduler never wakes at or after bound; an
//     execution step whose horizon lies past bound stops there and later
//     resumes toward the horizon the offline loop would have used, which
//     counts tasks admitted since the pause; and neither the idle jump
//     nor the "scheduled nothing" jump to the next arrival crosses bound.
//   - Project runs value copies of the unfinished tasks to completion on
//     a throwaway simulator that records nothing, leaving the live one
//     untouched.
//
// Run is AdvanceTo with no bound: one event loop serves the offline run
// and the live one, and a live simulator fed any admission chunks and
// bounds ends on the Result the offline Run gives over the same tasks.
//
// Preemption events and occupancy spans are recorded only when
// Options.Record asks for them: the mechanism characterisation (Figures
// 5-6, the energy model) and the Figure 2 timeline read them, while a
// serving backend, which reads only its tasks, records neither.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/ckptmem"
	"repro/internal/npu"
	"repro/internal/preempt"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Options configures one simulation run.
type Options struct {
	// NPU is the machine configuration (Table I).
	NPU npu.Config
	// Sched is the scheduler configuration (Table II).
	Sched sched.Config
	// Policy decides which task runs next.
	Policy sched.Policy
	// Preemptive enables preemption; when false the policy's Preempt
	// recommendation is ignored and tasks run to completion (the
	// NP-* configurations).
	Preemptive bool
	// Selector chooses the preemption mechanism for each
	// policy-recommended preemption. Ignored when Preemptive is false;
	// required otherwise.
	Selector sched.MechanismSelector
	// CkptMem, when non-nil, tracks checkpointed contexts against a
	// finite NPU-local memory pool (Section VI-G): oversubscription
	// migrates contexts to host memory and charges the transfer
	// latency. Nil models an unbounded pool (the paper's common case,
	// GBs of NPU DRAM).
	CkptMem *ckptmem.Manager
	// OnComplete, when non-nil, is invoked after every task completion
	// with the completed entry and the completion cycle; the returned
	// tasks join the pending arrivals. Each injected task must arrive at
	// or after the completion cycle. This is the closed-loop serving
	// hook: a client releases its next request only once its previous
	// one completes. Because an arrival can never precede the completion
	// that released it, a run with injection is indistinguishable from a
	// run given the same realized arrivals up front (the simulator's
	// trajectory depends on arrival times, not on when an arrival became
	// known) — internal/serving's closed-loop replay relies on this.
	// Project releases nothing through it.
	OnComplete func(done *sched.Task, now int64) []*sched.Task
	// Record fills Result.Preemptions and Result.Timeline, which stay nil
	// without it. It changes nothing else: tasks, cycles and wakes are the
	// same either way. Project clears it on its throwaway copy.
	Record bool
}

// PreemptionEvent records one serviced preemption for the
// mechanism-characterization experiments (Figures 5-6).
type PreemptionEvent struct {
	// Cycle is when the preemption was serviced.
	Cycle int64
	// Preempted and Preempting identify the two tasks.
	Preempted, Preempting int
	// Cost is the mechanism cost breakdown.
	Cost preempt.Cost
}

// Result is the outcome of one simulation run.
type Result struct {
	// Tasks are the completed context-table entries.
	Tasks []*sched.Task
	// Preemptions are the serviced preemption events in time order (DRAIN
	// non-preemptions included); nil unless Options.Record is set.
	Preemptions []PreemptionEvent
	// Cycles is the makespan (completion of the last task).
	Cycles int64
	// Wakes counts scheduler invocations.
	Wakes int64
	// Timeline records NPU occupancy spans (one per contiguous run of
	// a task), suitable for Figure 2-style rendering; nil unless
	// Options.Record is set.
	Timeline *trace.Timeline
}

// Sim is a single-run simulator instance.
type Sim struct {
	opt      Options
	quantum  int64 // scheduling period in cycles
	tasks    []*sched.Task
	pending  []*sched.Task // not yet arrived, sorted by arrival
	pendHead int           // index of the next pending arrival
	ready    []*sched.Task
	running  *sched.Task
	runSince int64 // cycle the running task's current span began
	now      int64
	result   Result
	// remaining counts the admitted tasks not yet finished.
	remaining int
	// lastArrival is the latest arrival of any task in the run,
	// injected ones included.
	lastArrival int64
	// maxCycles aborts a runaway simulation: exceeding it is an error,
	// so scheduler livelock cannot masquerade as a result. New sets it
	// past the latest arrival with generous slack, and insert extends it
	// for every task admitted or injected later.
	maxCycles int64

	// bound is the last AdvanceTo bound: every event strictly before it
	// has run, and Admit takes only arrivals at or after it.
	bound int64
	// stepping marks an open execution step, from the wake that starts
	// it to its horizon or its task's completion; a bound can leave it
	// open. stepStart is the cycle it began at, from which its horizon is
	// recomputed whenever it resumes.
	stepping  bool
	stepStart int64
	// waiting marks a jump to the next arrival owed after a wake that
	// scheduled nothing; a bound can hold it back.
	waiting bool

	// onDone, on a throwaway copy made by Project, is told of each
	// completion.
	onDone func(*sched.Task, int64)

	// live is the scratch buffer allLive refills at every scheduler
	// wake, so token accounting allocates nothing in steady state.
	live []*sched.Task
}

// open is the bound of a run to completion.
const open = math.MaxInt64

// New validates the options and prepares a simulator over the given
// tasks. The task slice and its entries are owned by the simulator
// afterwards, and a Result's Tasks are that slice: the caller's own
// entries, not copies. A refill of those entries for another run
// (workload.Refill) overwrites them, so a Result is read before its
// entries are refilled.
func New(opt Options, tasks []*sched.Task) (*Sim, error) {
	if err := opt.NPU.Validate(); err != nil {
		return nil, err
	}
	if opt.Policy == nil {
		return nil, fmt.Errorf("sim: no policy configured")
	}
	if opt.Preemptive && opt.Selector == nil {
		return nil, fmt.Errorf("sim: preemptive run requires a mechanism selector")
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("sim: no tasks")
	}
	var last, total int64
	for _, t := range tasks {
		last = max(last, t.Arrival)
		total += t.IsolatedCycles
	}
	quantum := opt.NPU.Cycles(opt.Sched.Quantum)
	if quantum <= 0 {
		quantum = 1
	}
	s := &Sim{opt: opt, quantum: quantum, remaining: len(tasks),
		lastArrival: last, bound: math.MinInt64,
		// The latest arrival, then full serialization plus 100x slack
		// for overheads and KILL re-execution.
		maxCycles: last + total*100 + opt.NPU.Cycles(opt.Sched.Quantum)*1000}
	if opt.Record {
		s.result.Timeline = &trace.Timeline{}
	}
	s.pending = append(s.pending, tasks...)
	slices.SortFunc(s.pending, func(a, b *sched.Task) int {
		if c := cmp.Compare(a.Arrival, b.Arrival); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	s.tasks = tasks
	return s, nil
}

// Run executes the simulation to completion and returns the result.
func (s *Sim) Run() (*Result, error) {
	if err := s.AdvanceTo(open); err != nil {
		return nil, err
	}
	s.result.Tasks = s.tasks
	s.result.Cycles = s.now
	return &s.result, nil
}

// Admit adds tasks that arrive at or after the last AdvanceTo bound; the
// simulator owns them afterwards. Each joins the pending arrivals at its
// (arrival, ID) position and extends the livelock bound as an injected
// arrival does. A task arriving before the bound is an error, and then
// none of the tasks is admitted.
func (s *Sim) Admit(tasks ...*sched.Task) error {
	for _, t := range tasks {
		if t.Arrival < s.bound {
			return fmt.Errorf("sim: admitted task %d arrives at cycle %d, before the bound %d already simulated",
				t.ID, t.Arrival, s.bound)
		}
	}
	for _, t := range tasks {
		s.insert(t)
	}
	return nil
}

// AdvanceTo runs every event strictly before bound, and nothing else (see
// the package comment). Bounds never decrease.
func (s *Sim) AdvanceTo(bound int64) error {
	if bound < s.bound {
		return fmt.Errorf("sim: bound %d precedes the bound %d already simulated", bound, s.bound)
	}
	s.bound = bound
	return s.advance(bound)
}

// Project runs value copies of the unfinished tasks and their execution
// cursors to completion on a throwaway simulator, calling onDone with
// each copy at its completion cycle, and returns the projected makespan.
// The copy shares the policy and selector (policies keep no decision
// state between picks), releases nothing through OnComplete, and records
// nothing (Record is cleared); the live simulator is left untouched.
func (s *Sim) Project(onDone func(t *sched.Task, now int64)) (int64, error) {
	if s.remaining == 0 {
		return s.now, nil
	}
	p := &Sim{
		opt: s.opt, quantum: s.quantum, now: s.now, runSince: s.runSince,
		remaining: s.remaining, lastArrival: s.lastArrival, maxCycles: s.maxCycles, bound: s.bound,
		stepping: s.stepping, stepStart: s.stepStart, waiting: s.waiting,
		onDone: onDone,
	}
	p.opt.OnComplete, p.opt.Record = nil, false
	if s.opt.CkptMem != nil {
		p.opt.CkptMem = s.opt.CkptMem.Clone()
	}
	tasks := make([]sched.Task, 0, s.remaining)
	clone := func(t *sched.Task) *sched.Task {
		tasks = append(tasks, *t)
		return &tasks[len(tasks)-1]
	}
	p.pending = make([]*sched.Task, 0, len(s.pending)-s.pendHead)
	for _, t := range s.pending[s.pendHead:] {
		p.pending = append(p.pending, clone(t))
	}
	p.ready = make([]*sched.Task, 0, len(s.ready)+1)
	for _, t := range s.ready {
		p.ready = append(p.ready, clone(t))
	}
	if s.running != nil {
		p.running = clone(s.running)
	}
	if err := p.advance(open); err != nil {
		return 0, err
	}
	return p.now, nil
}

// Tasks returns every admitted task in admission order: New's tasks,
// then each Admit call's and each injected arrival in turn. The slice
// belongs to the simulator and is valid until the next Admit or advance.
func (s *Sim) Tasks() []*sched.Task { return s.tasks }

// advance is the event loop: it runs until every admitted task has
// finished or the next event lies at or after bound. State that a bound
// interrupts (an open execution step, a held-back jump) lives on the Sim,
// so the next call resumes exactly where the offline loop would go on.
func (s *Sim) advance(bound int64) error {
	for s.remaining > 0 {
		if s.waiting {
			// The policy scheduled nothing (cannot happen with a sane
			// policy, but guard against livelock): jump to the next
			// arrival.
			if s.pendHead >= len(s.pending) {
				if bound < open {
					return nil // a later admission may still arrive
				}
				return fmt.Errorf("sim: policy %s scheduled nothing with %d ready",
					s.opt.Policy.Name(), len(s.ready))
			}
			next := s.pending[s.pendHead].Arrival
			if next >= bound {
				return nil
			}
			s.now, s.waiting = next, false
			continue
		}
		if !s.stepping {
			if s.now > s.maxCycles {
				return fmt.Errorf("sim: exceeded max cycles %d (policy %s): likely livelock",
					s.maxCycles, s.opt.Policy.Name())
			}
			if s.now >= bound {
				return nil
			}
			s.admitArrivals()

			if s.running == nil && len(s.ready) == 0 {
				// Idle: jump to the next arrival.
				if s.pendHead >= len(s.pending) {
					return fmt.Errorf("sim: %d tasks unfinished with empty queues", s.remaining)
				}
				next := s.pending[s.pendHead].Arrival
				if next >= bound {
					return nil
				}
				s.now = next
				continue
			}

			// Scheduler wake-up: update token balances, then consult the
			// policy.
			s.result.Wakes++
			sched.UpdateTokens(s.allLive(), s.now)
			if len(s.ready) > 0 {
				dec := s.opt.Policy.Pick(s.ready, s.running, s.now)
				if err := s.apply(dec); err != nil {
					return err
				}
			}
			if s.running == nil {
				s.waiting = true
				continue
			}
			s.stepping, s.stepStart = true, s.now
		}

		// Execute until the next scheduler event: quantum expiry, next
		// arrival, or task completion. A step cut short by a bound
		// recomputes its horizon from its start, so an arrival admitted
		// since the pause shortens it exactly as it would have offline.
		if s.now >= bound {
			return nil
		}
		horizon := s.stepStart + s.quantum
		if s.pendHead < len(s.pending) && s.pending[s.pendHead].Arrival < horizon {
			horizon = s.pending[s.pendHead].Arrival
		}
		if horizon <= s.stepStart {
			horizon = s.stepStart + 1
		}
		s.now += s.advanceRunning(min(horizon, bound) - s.now)
		switch {
		case s.running.Exec.Done():
			s.stepping = false
			if err := s.complete(); err != nil {
				return err
			}
		case s.now >= horizon:
			s.stepping = false
		}
	}
	return nil
}

// complete retires the running task at the current cycle and queues the
// arrivals the OnComplete hook releases.
func (s *Sim) complete() error {
	s.endSpan()
	done := s.running
	done.MarkFinished(s.now)
	s.running = nil
	s.remaining--
	if s.onDone != nil {
		s.onDone(done, s.now)
	}
	if s.opt.OnComplete == nil {
		return nil
	}
	for _, t := range s.opt.OnComplete(done, s.now) {
		if t == nil {
			continue
		}
		if t.Arrival < s.now {
			return fmt.Errorf("sim: injected task %d arrives at cycle %d before the completion at %d that released it",
				t.ID, t.Arrival, s.now)
		}
		s.insert(t)
	}
	return nil
}

// insert queues one arrival — admitted or injected by the OnComplete
// hook — at its (arrival, ID) sort position, and extends the livelock
// bound by its own work and by how far it moves the latest arrival, so a
// stream that grows after New cannot trip a bound sized for the
// initial tasks only.
func (s *Sim) insert(t *sched.Task) {
	tail := s.pending[s.pendHead:]
	idx := sort.Search(len(tail), func(i int) bool {
		if tail[i].Arrival != t.Arrival {
			return tail[i].Arrival > t.Arrival
		}
		return tail[i].ID > t.ID
	})
	pos := s.pendHead + idx
	s.pending = append(s.pending, nil)
	copy(s.pending[pos+1:], s.pending[pos:])
	s.pending[pos] = t
	s.tasks = append(s.tasks, t)
	s.remaining++
	s.maxCycles += t.IsolatedCycles * 100
	if t.Arrival > s.lastArrival {
		s.maxCycles += t.Arrival - s.lastArrival
		s.lastArrival = t.Arrival
	}
}

// allLive returns every task currently tracked by the context table
// (ready plus running). The returned slice is the simulator's scratch
// buffer, valid only until the next call.
func (s *Sim) allLive() []*sched.Task {
	s.live = s.live[:0]
	s.live = append(s.live, s.ready...)
	if s.running != nil {
		s.live = append(s.live, s.running)
	}
	return s.live
}

// admitArrivals moves pending tasks whose dispatch time has come into the
// ready queue, advancing the head index rather than re-slicing.
func (s *Sim) admitArrivals() {
	for s.pendHead < len(s.pending) && s.pending[s.pendHead].Arrival <= s.now {
		t := s.pending[s.pendHead]
		s.pendHead++
		t.State = sched.Waiting
		s.ready = append(s.ready, t)
	}
}

// apply enacts a policy decision: dispatch onto an idle NPU, or service a
// recommended preemption through the mechanism selector. A checkpoint-
// memory accounting failure (e.g. a duplicate save) is a simulation
// error: swallowing it would silently skew the reported overheads.
func (s *Sim) apply(dec sched.Decision) error {
	if dec.Candidate == nil {
		return nil
	}
	if s.running == nil {
		return s.dispatch(dec.Candidate)
	}
	if !s.opt.Preemptive || !dec.Preempt || dec.Candidate == s.running {
		return nil
	}
	mech := s.opt.Selector.Select(s.running, dec.Candidate)
	if mech == preempt.Drain {
		// Algorithm 3 overrides the policy: the current task drains
		// to completion; the candidate stays queued and will be
		// reconsidered at the next wake. Record the non-preemption
		// so Figure 5's DRAIN wait-time accounting can observe it.
		s.recordPreemption(s.running.ID, dec.Candidate.ID, preempt.Cost{Mechanism: preempt.Drain})
		return nil
	}

	victim := s.running
	cost := preempt.Apply(s.opt.NPU, mech, &victim.Exec)
	// Completing the in-flight instruction and draining the checkpoint
	// DMA occupy the NPU.
	s.now += cost.BoundaryCycles + cost.SaveCycles
	s.endSpan()
	victim.Preemptions++
	victim.CheckpointCycles += cost.SaveCycles
	victim.WastedCycles += cost.WastedCycles
	if mech == preempt.Checkpoint {
		victim.SavedBytes = cost.SavedBytes
		// Register only non-empty contexts, mirroring the restore
		// condition in dispatch so every save is paired with exactly
		// one restore.
		if s.opt.CkptMem != nil && cost.SavedBytes > 0 {
			// Finite checkpoint storage: oversubscription migrates
			// contexts over the host link and extends the busy time.
			extra, err := s.opt.CkptMem.Save(victim.ID, cost.SavedBytes, s.now)
			if err != nil {
				return fmt.Errorf("sim: checkpoint save for task %d: %w", victim.ID, err)
			}
			s.now += extra
			victim.CheckpointCycles += extra
		}
	} else {
		victim.SavedBytes = 0
	}
	victim.MarkWaiting(s.now)
	s.ready = append(s.ready, victim)
	s.running = nil

	s.recordPreemption(victim.ID, dec.Candidate.ID, cost)
	return s.dispatch(dec.Candidate)
}

// recordPreemption appends one serviced preemption at the current cycle
// when the run records.
func (s *Sim) recordPreemption(preempted, preempting int, cost preempt.Cost) {
	if !s.opt.Record {
		return
	}
	s.result.Preemptions = append(s.result.Preemptions, PreemptionEvent{
		Cycle:      s.now,
		Preempted:  preempted,
		Preempting: preempting,
		Cost:       cost,
	})
}

// dispatch moves a ready task onto the NPU, charging any pending context
// restore as overhead before its first instruction. A checkpoint-memory
// accounting failure (a restore without a matching save) is a simulation
// error.
func (s *Sim) dispatch(t *sched.Task) error {
	idx := -1
	for i, r := range s.ready {
		if r == t {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("sim: dispatch of task not in ready queue")
	}
	// Swap-removal: ready-queue order is irrelevant because every
	// policy selects by a strict total order (ties broken by task ID),
	// so an O(1) removal cannot change any decision.
	last := len(s.ready) - 1
	s.ready[idx] = s.ready[last]
	s.ready[last] = nil
	s.ready = s.ready[:last]
	t.MarkRunning(s.now)
	s.runSince = s.now
	if t.SavedBytes > 0 {
		restore := preempt.RestoreCycles(s.opt.NPU, t.SavedBytes)
		if s.opt.CkptMem != nil {
			extra, err := s.opt.CkptMem.Restore(t.ID)
			if err != nil {
				return fmt.Errorf("sim: checkpoint restore for task %d: %w", t.ID, err)
			}
			restore += extra
		}
		t.PendingOverhead += restore
		t.CheckpointCycles += restore
		t.SavedBytes = 0
	}
	s.running = t
	return nil
}

// endSpan closes the running task's current occupancy span at the
// current cycle when the run records.
func (s *Sim) endSpan() {
	if !s.opt.Record || s.running == nil || s.now <= s.runSince {
		return
	}
	s.result.Timeline.Add(trace.Span{
		TaskID: s.running.ID,
		Label:  s.running.Model,
		Start:  s.runSince,
		End:    s.now,
	})
}

// advanceRunning consumes up to budget cycles of the running task's
// pending overhead plus execution and returns the cycles used.
func (s *Sim) advanceRunning(budget int64) int64 {
	t := s.running
	var used int64
	if t.PendingOverhead > 0 {
		o := t.PendingOverhead
		if o > budget {
			o = budget
		}
		t.PendingOverhead -= o
		used += o
		budget -= o
	}
	if budget > 0 {
		used += t.Exec.Advance(budget)
	}
	return used
}
