package serving

// session.go is the long-lived serving surface: instead of one-shot
// Run/RunBatched scenarios, a Session accepts a request stream
// incrementally — explicit Submit calls, or an open-loop Poisson arrival
// process via Offer — and answers Stats at any point with the same
// steady-state statistics the batch entry points compute.
//
// An unbatched Session keeps one live simulator that moves forward with
// its stream (see internal/sim's resumable API). Each request is
// materialized and simulated once: Stats admits the requests submitted
// since the last call, advances the simulator to the latest arrival —
// nothing before it depends on a later request — and projects only the
// work still in flight. A stream that changed other than by appending
// (a failure reclaim, closed-loop clients, an arrival before the
// simulated bound) rebuilds the simulator from cycle 0, and a batched
// Session re-simulates its stream whenever it changed, because a new
// arrival can join an earlier fused dispatch. Either way a Session's
// statistics over a stream are identical to Run's over the same
// generated stream, which session_test.go and live_test.go lock in.

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SessionConfig parameterizes a long-lived serving session.
type SessionConfig struct {
	// Policy is the scheduling-policy label (sched.ByName).
	Policy string
	// Preemptive enables the preemptible-NPU path.
	Preemptive bool
	// Selector is the preemption-mechanism selector label; empty
	// defaults to "dynamic" on preemptive sessions and must be empty on
	// non-preemptive ones.
	Selector string
	// Window is the dynamic-batching window: same-model CNN requests
	// arriving within a window are fused (0 disables batching).
	Window time.Duration
	// MaxBatch caps the fused batch size (default 16).
	MaxBatch int
	// Horizon is the reference horizon for the warm-up cut; 0 derives
	// it from the latest submitted arrival.
	Horizon time.Duration
	// WarmupFraction of the horizon is excluded from latency statistics
	// (default 0.2).
	WarmupFraction float64
}

// Session is an open serving endpoint accumulating a request stream.
// A Session is not safe for concurrent use.
type Session struct {
	srv *Server
	cfg SessionConfig

	// reqs are the submitted request templates in submission order.
	// Simulations materialize their own scheduler entries from them, so a
	// template is never mutated by a simulation. count is how many there
	// are; it outlives reqs, which Close drops.
	reqs  []*workload.Task
	count int
	// factors holds each request's service-time factor, parallel to
	// reqs: the speed of the NPU it was routed to (a slow tier, a chaos
	// slowdown). Nil while every request runs at nominal speed.
	factors []float64

	dirty   bool
	drained bool
	closed  bool
	// samples memoizes the raw measured material of the last refresh;
	// last memoizes the statistics derived from it. The node session
	// merges backends' samples before deriving aggregate statistics, so
	// both layers are kept.
	samples    sampleSet
	last       BatchStats
	statsValid bool
	// simulations counts how many refreshes ran the simulator (the
	// incremental-stats memoization instrumentation).
	simulations int

	// live is the unbatched session's resumable simulator. It has
	// admitted reqs[:admitted] (entry i is request i) and run every event
	// before bound, the latest of their arrivals. Nil before the first
	// refresh and after any change to the stream other than an append;
	// the next refresh then rebuilds it from cycle 0.
	live     *sim.Sim
	admitted int
	bound    int64
	// view is refresh's scratch: the live entries in submission order,
	// each unfinished one replaced by its projected copy.
	view []*sched.Task
	// materialized and rebuilds count the scheduler entries the live path
	// created and the live simulators it built (export_test.go).
	materialized, rebuilds int

	// traced makes a refresh retain one completion record per simulated
	// request (set by a node session with a tracer attached); the node
	// derives the trace's completion events from them. Only unbatched
	// sessions retain completions — a fused dispatch has no one-to-one
	// member completion (see NodeSession.TraceEvents).
	traced      bool
	completions []completionRec
}

// Open validates the scheduler configuration and opens a session.
func (s *Server) Open(cfg SessionConfig) (*Session, error) {
	if _, err := sched.ByName(cfg.Policy, s.scfg); err != nil {
		return nil, err
	}
	if cfg.Preemptive {
		sel := cfg.Selector
		if sel == "" {
			sel = "dynamic"
		}
		if _, err := sched.SelectorByName(sel); err != nil {
			return nil, err
		}
	} else if cfg.Selector != "" {
		return nil, fmt.Errorf("serving: selector %q set on a non-preemptive session", cfg.Selector)
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("serving: negative batching window %v", cfg.Window)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	return &Session{srv: s, cfg: cfg}, nil
}

// Submit appends one request to the stream. The task is treated as a
// template: its ID is reassigned to the submission index and a fresh
// scheduler entry is materialized per simulation.
func (ss *Session) Submit(t *workload.Task) error { return ss.submit(t, 1) }

// submit appends one request served at factor× its nominal service time.
func (ss *Session) submit(t *workload.Task, factor float64) error {
	if ss.closed {
		return fmt.Errorf("serving: session closed")
	}
	if ss.drained {
		return fmt.Errorf("serving: session drained; no further submissions")
	}
	if t == nil || t.Program == nil {
		return fmt.Errorf("serving: nil request")
	}
	if factor != 1 && ss.factors == nil {
		ss.factors = make([]float64, len(ss.reqs), cap(ss.reqs))
		for i := range ss.factors {
			ss.factors[i] = 1
		}
	}
	ss.reqs = append(ss.reqs, t)
	if ss.factors != nil {
		ss.factors = append(ss.factors, factor)
	}
	ss.count = len(ss.reqs)
	ss.dirty = true
	return nil
}

// factor answers request i's service-time factor.
func (ss *Session) factor(i int) float64 {
	if ss.factors == nil {
		return 1
	}
	return ss.factors[i]
}

// Offer drives the open-loop arrival process: it generates a Poisson
// request stream for the spec (serving.Generate) and submits every
// request, returning how many arrived within the horizon.
func (ss *Session) Offer(spec Spec, rng *rand.Rand) (int, error) {
	if ss.closed {
		return 0, fmt.Errorf("serving: session closed")
	}
	if ss.drained {
		return 0, fmt.Errorf("serving: session drained; no further submissions")
	}
	tasks, err := ss.srv.Generate(spec, rng)
	if err != nil {
		return 0, err
	}
	for _, t := range tasks {
		if err := ss.Submit(t); err != nil {
			return 0, err
		}
	}
	return len(tasks), nil
}

// Pending reports how many requests have been submitted so far; it keeps
// answering after Close.
func (ss *Session) Pending() int { return ss.count }

// Simulations reports how many times the session ran the simulator —
// repeated Stats calls without new submissions answer from the memo.
func (ss *Session) Simulations() int { return ss.simulations }

// Stats computes the steady-state statistics of everything submitted so
// far. The result is memoized: a second call without intervening
// submissions does not re-simulate. Statistics are per original request;
// on batched sessions (Window > 0) fused dispatches are unbundled into
// their member requests exactly as RunBatched reports them.
func (ss *Session) Stats() (BatchStats, error) {
	if ss.closed {
		return BatchStats{}, fmt.Errorf("serving: session closed")
	}
	if err := ss.refresh(); err != nil {
		return BatchStats{}, err
	}
	if !ss.statsValid {
		out, err := ss.srv.statsOf(&ss.samples)
		if err != nil {
			return BatchStats{}, err
		}
		ss.last = out
		ss.statsValid = true
	}
	return ss.last, nil
}

// refresh brings the memoized sample set up to date with the stream, if
// it changed since the last refresh.
func (ss *Session) refresh() error {
	if len(ss.reqs) == 0 {
		return fmt.Errorf("serving: no requests submitted")
	}
	if !ss.dirty {
		return nil
	}
	sm, err := ss.compute()
	if err != nil {
		return err
	}
	ss.samples = *sm
	ss.dirty = false
	ss.statsValid = false
	return nil
}

// Drain computes the final statistics and seals the session against
// further submissions. Stats remains callable until Close.
func (ss *Session) Drain() (BatchStats, error) {
	st, err := ss.Stats()
	if err != nil {
		return BatchStats{}, err
	}
	ss.drain()
	return st, nil
}

// drain seals the session against further submissions and drops the live
// simulator, which only a new submission could move.
func (ss *Session) drain() {
	ss.drained = true
	ss.live, ss.view = nil, nil
}

// Close seals the session and releases the stream it pinned: request
// templates, the sample memo, traced completions and the live simulator.
// Pending keeps answering; Submit/Offer/Stats/Drain error. Close is
// idempotent.
func (ss *Session) Close() error {
	ss.closed = true
	ss.drain()
	ss.reqs, ss.factors, ss.completions = nil, nil, nil
	ss.samples, ss.last, ss.statsValid = sampleSet{}, BatchStats{}, false
	return nil
}

// latestArrival answers the latest submitted arrival.
func (ss *Session) latestArrival() int64 {
	var latest int64
	for _, t := range ss.reqs {
		latest = max(latest, t.Arrival)
	}
	return latest
}

// cut resolves the warm-up cut cycle: the configured horizon when set,
// otherwise the latest submitted arrival.
func (ss *Session) cut() int64 {
	if ss.cfg.Horizon > 0 {
		return ss.srv.warmupCut(ss.cfg.Horizon, ss.cfg.WarmupFraction)
	}
	return int64(float64(ss.latestArrival()) * warmupFraction(ss.cfg.WarmupFraction))
}

// entry materializes a fresh scheduler entry from a submitted template: a
// new execution cursor at factor× the nominal service time, with the
// estimate scaled to match, re-stamped with the submission index as its
// ID.
func entry(id int, t *workload.Task, factor float64) *sched.Task {
	return sched.NewTask(id, t.Model, t.Batch, t.Priority, t.Arrival,
		npu.NewScaledExecution(t.Program, factor), scaledEstimate(t.EstimatedCycles, factor))
}

// scaledEstimate is an estimate at factor× the nominal service time.
func scaledEstimate(est int64, factor float64) int64 {
	if factor == 1 {
		return est
	}
	return int64(float64(est) * factor)
}

// materialize wraps a fresh entry (see entry) in a simulatable instance of
// the template.
func materialize(id int, t *workload.Task, factor float64) *workload.Task {
	return &workload.Task{
		Task:     entry(id, t, factor),
		ModelRef: t.ModelRef,
		InLen:    t.InLen, ActualOut: t.ActualOut, PredictedOut: t.PredictedOut,
		Program: t.Program,
	}
}

// compute simulates the stream and collects its raw measured samples:
// unbatched sessions on the live simulator (advanceLive), batched ones
// by re-simulating the whole coalesced stream from cycle 0.
func (ss *Session) compute() (*sampleSet, error) {
	ss.simulations++
	if ss.cfg.Window <= 0 {
		return ss.advanceLive()
	}
	fresh := make([]*workload.Task, len(ss.reqs))
	for i, t := range ss.reqs {
		fresh[i] = materialize(i, t, ss.factor(i))
	}
	tasks, members, err := ss.coalesce(fresh)
	if err != nil {
		return nil, err
	}
	res, err := ss.srv.simulate(ss.cfg.Policy, ss.cfg.Preemptive, ss.cfg.Selector, tasks)
	if err != nil {
		return nil, err
	}
	return ss.srv.collectMembers(res, members, ss.cut()), nil
}

// advanceLive admits the requests submitted since the last refresh into
// the live simulator — rebuilding it from cycle 0 first when it is gone
// or one of them arrives before its bound — advances it to the latest
// arrival, and collects the samples of the whole stream in submission
// order: finished live entries as they are, the rest as projected.
func (ss *Session) advanceLive() (*sampleSet, error) {
	if ss.live != nil {
		for _, t := range ss.reqs[ss.admitted:] {
			if t.Arrival < ss.bound {
				ss.live = nil
				break
			}
		}
	}
	if ss.live == nil {
		live, err := ss.srv.newSim(ss.cfg.Policy, ss.cfg.Preemptive, ss.cfg.Selector,
			ss.entries(0), nil)
		if err != nil {
			return nil, err
		}
		ss.live = live
		ss.rebuilds++
	} else if err := ss.live.Admit(ss.entries(ss.admitted)...); err != nil {
		return nil, err
	}
	ss.admitted = len(ss.reqs)
	ss.bound = ss.latestArrival()
	if err := ss.live.AdvanceTo(ss.bound); err != nil {
		return nil, err
	}
	ss.view = append(ss.view[:0], ss.live.Tasks()...)
	makespan, err := ss.live.Project(func(t *sched.Task, _ int64) { ss.view[t.ID] = t })
	if err != nil {
		return nil, err
	}
	if ss.traced {
		ss.retainCompletions(ss.view)
	}
	return ss.srv.collect(ss.view, makespan, ss.cut()), nil
}

// entries materializes fresh scheduler entries for reqs[from:].
func (ss *Session) entries(from int) []*sched.Task {
	out := make([]*sched.Task, 0, len(ss.reqs)-from)
	for i := from; i < len(ss.reqs); i++ {
		out = append(out, entry(i, ss.reqs[i], ss.factor(i)))
	}
	ss.materialized += len(out)
	return out
}

// coalesce fuses same-model CNN requests arriving within the batching
// window into batched dispatches, mirroring the TensorRT-Inference-Server
// runtime feature RunBatched models (the grouping loop is shared; see
// groupRequests). Unlike RunBatched's generator-driven coalescer,
// submitted instances are preserved: single-member groups, RNN requests
// and pre-batched submissions pass through unchanged, and only
// multi-member groups are re-instanced at the fused batch size. A fused
// dispatch arrives when its window closes (the last member's arrival),
// runs at the speed its NPU had then (the last member's factor) and
// inherits the highest member priority, keeping coalescing
// deterministic — no randomness is consumed. requests are materialized
// entries, each stamped with its submission index.
func (ss *Session) coalesce(requests []*workload.Task) ([]*workload.Task, map[int][]memberRequest, error) {
	windowCycles := ss.srv.cfg.Cycles(ss.cfg.Window)
	var tasks []*workload.Task
	members := map[int][]memberRequest{}
	nextID := 0
	flush := func(group []*workload.Task) error {
		last := group[len(group)-1]
		factor := ss.factor(last.ID)
		var fused *workload.Task
		if len(group) == 1 {
			fused = materialize(nextID, ss.reqs[last.ID], factor)
		} else {
			prio := group[0].Priority
			for _, t := range group[1:] {
				if t.Priority > prio {
					prio = t.Priority
				}
			}
			inst, err := ss.srv.gen.Instance(nextID, group[0].ModelRef, len(group), prio, last.Arrival, nil, nil)
			if err != nil {
				return err
			}
			if factor != 1 {
				inst.Task = entry(nextID, inst, factor)
			}
			fused = inst
		}
		tasks = append(tasks, fused)
		members[nextID] = groupMembers(group)
		nextID++
		return nil
	}
	passThrough := func(r *workload.Task) bool {
		// RNNs (per-request unrolled lengths differ) and pre-batched
		// submissions pass through unbatched.
		return r.ModelRef == nil || r.ModelRef.IsRNN() || r.Batch > 1 || windowCycles == 0
	}
	if err := groupRequests(requests, windowCycles, ss.cfg.MaxBatch, passThrough, flush); err != nil {
		return nil, nil, err
	}
	if len(tasks) == 0 {
		return nil, nil, fmt.Errorf("serving: batching produced no tasks")
	}
	return tasks, members, nil
}
