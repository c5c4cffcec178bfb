package serving

// session.go is the long-lived serving surface: instead of one-shot
// Run/RunBatched scenarios, a Session accepts a request stream
// incrementally — explicit Submit calls, or an open-loop Poisson arrival
// process via Offer — and answers Stats at any point with the same
// steady-state statistics the batch entry points compute.
//
// An unbatched Session keeps one live simulator that moves forward with
// its stream (see internal/sim's resumable API). Each request gets one
// scheduler entry, simulated once: Stats admits the requests submitted
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

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SessionConfig parameterizes a long-lived serving session.
type SessionConfig struct {
	// Policy, Preemptive and Selector are the local scheduler (see
	// sched.Spec: an empty Selector means "dynamic" on a preemptive
	// session and must stay empty on a non-preemptive one).
	Policy     string
	Preemptive bool
	Selector   string
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

	// reqs are the submitted requests in submission order. Simulations
	// build their own scheduler entries from them (workload.Task.Fill),
	// so a request is never mutated by a simulation. count is how many
	// there are; it outlives reqs, which Close drops.
	reqs  []*workload.Task
	count int
	// factors holds each request's service-time factor, parallel to
	// reqs: the speed of the NPU it was routed to (a slow tier, a chaos
	// slowdown). Nil while every request runs at nominal speed.
	factors []float64
	// ids holds each request's trace request ID, parallel to reqs, on a
	// traced backend (nil otherwise): the node numbers submissions, so
	// the same request submitted twice, or to two nodes, is two traced
	// requests.
	ids []int

	dirty   bool
	drained bool
	closed  bool
	// samples memoizes the raw measured material of the last refresh,
	// collected into the same buffers every time; last memoizes the
	// statistics derived from it. The node session merges backends'
	// samples before deriving aggregate statistics, so both layers are
	// kept. sorted is the scratch buffer a standalone session's Stats
	// sorts latencies in; a node backend sorts in its node's instead.
	// Close releases all three.
	samples    sampleSet
	last       BatchStats
	statsValid bool
	sorted     []float64
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
	// built and the live simulators it built (export_test.go).
	materialized, rebuilds int

	// traced makes a refresh retain one completion record per simulated
	// request (set by a node session with a tracer attached); the node
	// derives the trace's completion events from them. Only unbatched
	// sessions retain completions — a fused dispatch has no one-to-one
	// member completion (see NodeSession.TraceEvents).
	traced      bool
	completions []completionRec
}

// spec is the session's local scheduler.
func (cfg SessionConfig) spec() sched.Spec {
	return sched.Spec{Policy: cfg.Policy, Preemptive: cfg.Preemptive, Selector: cfg.Selector}
}

// Open validates the scheduler configuration and opens a session.
func (s *Server) Open(cfg SessionConfig) (*Session, error) {
	if err := cfg.spec().Validate(); err != nil {
		return nil, err
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("serving: negative batching window %v", cfg.Window)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	return &Session{srv: s, cfg: cfg}, nil
}

// Submit appends one request to the stream. The session never changes
// it: each simulation builds a fresh scheduler entry from it, numbered by
// the submission index.
func (ss *Session) Submit(t *workload.Task) error { return ss.submit(t, 1, 0) }

// submit appends one request served at factor× its nominal service
// time, under trace request ID id on a traced backend.
func (ss *Session) submit(t *workload.Task, factor float64, id int) error {
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
	if ss.traced {
		ss.ids = append(ss.ids, id)
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

// Stats computes the steady-state statistics of everything submitted so
// far. The result is memoized: a second call without intervening
// submissions does not re-simulate. Statistics are per original request;
// on batched sessions (Window > 0) fused dispatches are unbundled into
// their member requests exactly as RunBatched reports them.
func (ss *Session) Stats() (BatchStats, error) {
	if ss.closed {
		return BatchStats{}, fmt.Errorf("serving: session closed")
	}
	return ss.stats(&ss.sorted)
}

// stats is Stats sorting latencies in the caller's scratch buffer (see
// statsOf): the session's own, or its node's.
func (ss *Session) stats(sorted *[]float64) (BatchStats, error) {
	if err := ss.refresh(); err != nil {
		return BatchStats{}, err
	}
	if !ss.statsValid {
		out, err := ss.srv.statsOf(&ss.samples, sorted)
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
	if err := ss.compute(); err != nil {
		return err
	}
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

// Close seals the session and releases the stream it pinned: submitted
// requests, the sample memo, traced completions and the live simulator.
// Pending keeps answering; Submit/Offer/Stats/Drain error. Close is
// idempotent.
func (ss *Session) Close() error {
	ss.closed = true
	ss.drain()
	ss.reqs, ss.factors, ss.ids, ss.completions = nil, nil, nil, nil
	ss.samples, ss.last, ss.statsValid, ss.sorted = sampleSet{}, BatchStats{}, false, nil
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

// compute simulates the stream and collects its raw measured samples
// into ss.samples: unbatched sessions on the live simulator
// (advanceLive), batched ones by re-simulating the whole coalesced
// stream from cycle 0.
func (ss *Session) compute() error {
	ss.simulations++
	if ss.cfg.Window <= 0 {
		return ss.advanceLive()
	}
	entries, members, err := ss.coalesce()
	if err != nil {
		return err
	}
	res, err := ss.srv.simulate(ss.cfg.spec(), entries)
	if err != nil {
		return err
	}
	ss.srv.collectMembers(&ss.samples, res, members, ss.cut())
	return nil
}

// advanceLive admits the requests submitted since the last refresh into
// the live simulator — rebuilding it from cycle 0 first when it is gone
// or one of them arrives before its bound — advances it to the latest
// arrival, and collects the samples of the whole stream in submission
// order into ss.samples: finished live entries as they are, the rest as
// projected.
func (ss *Session) advanceLive() error {
	if ss.live != nil {
		for _, t := range ss.reqs[ss.admitted:] {
			if t.Arrival < ss.bound {
				ss.live = nil
				break
			}
		}
	}
	if ss.live == nil {
		live, err := ss.srv.newSim(ss.cfg.spec(), ss.entries(0), nil)
		if err != nil {
			return err
		}
		ss.live = live
		ss.rebuilds++
	} else if err := ss.live.Admit(ss.entries(ss.admitted)...); err != nil {
		return err
	}
	ss.admitted = len(ss.reqs)
	ss.bound = ss.latestArrival()
	if err := ss.live.AdvanceTo(ss.bound); err != nil {
		return err
	}
	ss.view = append(ss.view[:0], ss.live.Tasks()...)
	makespan, err := ss.live.Project(func(t *sched.Task, _ int64) { ss.view[t.ID] = t })
	if err != nil {
		return err
	}
	if ss.traced {
		ss.retainCompletions(ss.view)
	}
	ss.srv.collect(&ss.samples, ss.view, makespan, ss.cut())
	return nil
}

// entries builds fresh scheduler entries for reqs[from:] in one slab,
// each numbered by its submission index and running at its factor.
func (ss *Session) entries(from int) []*sched.Task {
	out := workload.Slab(len(ss.reqs) - from)
	for k, e := range out {
		i := from + k
		ss.reqs[i].Fill(e, i, ss.reqs[i].Arrival, ss.factor(i))
	}
	ss.materialized += len(out)
	return out
}

// coalesce fuses same-model CNN requests arriving within the batching
// window into batched dispatches, mirroring the TensorRT-Inference-Server
// runtime feature RunBatched models (the grouping loop is shared; see
// groupRequests), and returns the scheduler entries to simulate. Unlike
// RunBatched's generator-driven coalescer, submitted instances are
// preserved: single-member groups, RNN requests and pre-batched
// submissions pass through as their own entries, and only multi-member
// groups are re-instanced at the fused batch size. A fused dispatch
// arrives when its window closes (the last member's arrival), runs at
// the speed its NPU had then (the last member's factor) and inherits the
// highest member priority, keeping coalescing deterministic — no
// randomness is consumed. A member's isolated time is its own program's
// total at its own factor.
func (ss *Session) coalesce() ([]*sched.Task, map[int][]memberRequest, error) {
	windowCycles := ss.srv.cfg.Cycles(ss.cfg.Window)
	var entries []*sched.Task
	members := map[int][]memberRequest{}
	flush := func(group []int) error {
		id, last := len(entries), group[len(group)-1]
		at, factor := ss.reqs[last].Arrival, ss.factor(last)
		fused := ss.reqs[last]
		if len(group) > 1 {
			prio := ss.reqs[group[0]].Priority
			for _, i := range group[1:] {
				prio = max(prio, ss.reqs[i].Priority)
			}
			inst, err := ss.srv.gen.Instance(id, ss.reqs[group[0]].ModelRef, len(group), prio, at, nil, nil)
			if err != nil {
				return err
			}
			fused = inst
		}
		entries = append(entries, fused.Entry(id, at, factor))
		members[id] = groupMembers(ss.reqs, group, ss.factor)
		return nil
	}
	passThrough := func(r *workload.Task) bool {
		// RNNs (per-request unrolled lengths differ) and pre-batched
		// submissions pass through unbatched.
		return r.ModelRef == nil || r.ModelRef.IsRNN() || r.Batch > 1 || windowCycles == 0
	}
	if err := groupRequests(ss.reqs, windowCycles, ss.cfg.MaxBatch, passThrough, flush); err != nil {
		return nil, nil, err
	}
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("serving: batching produced no tasks")
	}
	return entries, members, nil
}
