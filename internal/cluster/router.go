package cluster

// router.go extracts the routing decision out of the batch Route loop
// into an incremental Router so the batch path (Route/Run) and the
// streaming node-session path (internal/serving.NodeSession) share one
// routing implementation. A Router sees one arriving request at a time
// plus the node's fluid State and picks the target NPU; the caller
// commits the decision, advancing the fluid backlog model. Because both
// paths drive the identical Router over the identical State, a streamed
// request sequence lands on exactly the NPUs the batch router would have
// chosen (node_test.go in internal/serving locks this in byte-for-byte).

import (
	"fmt"

	"repro/internal/workload"
)

// Router makes one incremental routing decision per arriving request.
// Decide must be called in nondecreasing arrival order (the State's
// fluid horizons drain destructively), and every decision must be
// committed with State.Commit before the next Decide.
type Router interface {
	// Decide selects the target NPU for the arriving task given the
	// router's fluid view of the node.
	Decide(t *workload.Task, st *State) int
}

// NewRouter returns a fresh router instance for the policy. Router
// instances keep per-stream scratch state (e.g. the round-robin cursor),
// so each request stream needs its own instance.
func NewRouter(p RoutingPolicy) (Router, error) {
	switch p {
	case RoundRobin:
		return &roundRobinRouter{}, nil
	case LeastQueued:
		return leastQueuedRouter{}, nil
	case LeastWork:
		return leastWorkRouter{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown routing policy %d", int(p))
	}
}

// State is the router's fluid view of the node: each NPU's queue is
// approximated by the serial completion horizon of the work already
// routed to it (estimated cycles, the same Algorithm 1 estimates the
// NPU-local schedulers consume).
//
// The NPU set is dynamic: AddNPUWithSpeed grows it mid-stream; Retire marks a
// backend draining (the autoscaler's voluntary scale-down — its routed
// work still completes but nothing new lands there); Cordon takes a
// backend out of rotation reversibly (Uncordon returns it) without the
// scale-down accounting; Fail removes a backend involuntarily, answering
// how much of its routed work had not drained, for the caller to
// re-route. Routers skip every non-Routable backend. A node that never
// scales (the batch Route path, a scaler-less session) sees the original
// fixed-fleet behaviour exactly.
type State struct {
	// freeAt is the fluid completion horizon per NPU.
	freeAt []int64
	// horizons holds the per-request completion horizons still queued on
	// each NPU. freeAt is nondecreasing per NPU, so each slice is sorted
	// ascending and draining is a head-cursor advance: the LeastQueued
	// in-flight count is O(1) amortized per arrival instead of rescanning
	// every previously routed request (which made Route O(n²) across the
	// stream).
	horizons [][]int64
	heads    []int
	// draining marks retired backends; routers route nothing new to them.
	draining []bool
	// cordoned marks backends taken out of rotation reversibly; routers
	// skip them until Uncordon.
	cordoned []bool
	// failed marks backends lost involuntarily; their fluid state is gone
	// and they never serve again.
	failed []bool
	// active counts the routable backends (neither draining, cordoned nor
	// failed).
	active int
	// speeds is the per-NPU service-time multiplier relative to the
	// node's base config (1 = base, 2 = half-clock). nil means a
	// homogeneous fleet of all-1 speeds; it is materialized lazily by
	// AddNPUWithSpeed so homogeneous nodes pay nothing.
	speeds []float64
	// qidx and widx are the lazily built decision indexes (index.go);
	// nil until a LeastQueued / LeastWork router's first Decide.
	qidx *queuedIndex
	widx *workIndex
}

// NewState returns the fluid state of an idle node with the given NPU
// count.
func NewState(npus int) *State {
	return &State{
		freeAt:   make([]int64, npus),
		horizons: make([][]int64, npus),
		heads:    make([]int, npus),
		draining: make([]bool, npus),
		cordoned: make([]bool, npus),
		failed:   make([]bool, npus),
		active:   npus,
	}
}

// NPUs reports the node size, including draining and failed backends.
func (s *State) NPUs() int { return len(s.freeAt) }

// Active reports how many backends accept new work.
func (s *State) Active() int { return s.active }

// Draining reports whether backend i has been retired: its routed work
// still drains, but routers send nothing new to it.
func (s *State) Draining(i int) bool { return s.draining[i] }

// Cordoned reports whether backend i is cordoned out of rotation.
func (s *State) Cordoned(i int) bool { return s.cordoned[i] }

// Failed reports whether backend i was lost to an injected failure.
func (s *State) Failed(i int) bool { return s.failed[i] }

// Routable reports whether routers may send new work to backend i.
func (s *State) Routable(i int) bool {
	return !s.draining[i] && !s.cordoned[i] && !s.failed[i]
}

// AddNPUWithSpeed appends a fresh idle backend to the node mid-stream
// (the autoscaler's scale-up path) and returns its index. speed is its
// service-time multiplier relative to the node's base config (1 = base
// speed, 2 = takes twice as long); speed-aware routers normalize
// completion-time estimates by it. The new backend carries no state
// from any previously failed or retired slot.
func (s *State) AddNPUWithSpeed(speed float64) int {
	if speed <= 0 {
		speed = 1
	}
	s.freeAt = append(s.freeAt, 0)
	s.horizons = append(s.horizons, nil)
	s.heads = append(s.heads, 0)
	s.draining = append(s.draining, false)
	s.cordoned = append(s.cordoned, false)
	s.failed = append(s.failed, false)
	if s.speeds != nil {
		s.speeds = append(s.speeds, speed)
	} else if speed != 1 {
		// First non-base backend: materialize the implicit all-1 fleet.
		s.speeds = make([]float64, len(s.freeAt))
		for i := range s.speeds {
			s.speeds[i] = 1
		}
		s.speeds[len(s.speeds)-1] = speed
	}
	s.active++
	i := len(s.freeAt) - 1
	s.indexAdd(i, s.speedOf(i))
	return i
}

// Speed reports backend i's service-time multiplier relative to the
// node's base config (1 for homogeneous fleets).
func (s *State) Speed(i int) float64 { return s.speedOf(i) }

func (s *State) speedOf(i int) float64 {
	if s.speeds == nil {
		return 1
	}
	return s.speeds[i]
}

// Retire marks backend i draining (the autoscaler's voluntary
// scale-down path): its already-routed work keeps its fluid horizons,
// but every Router skips it from now on. Retiring the last active
// backend is refused — a node must always accept work.
func (s *State) Retire(i int) error {
	if i < 0 || i >= len(s.freeAt) {
		return fmt.Errorf("cluster: retire of unknown NPU %d (node size %d)", i, len(s.freeAt))
	}
	if s.failed[i] {
		return fmt.Errorf("cluster: NPU %d has failed", i)
	}
	if s.draining[i] {
		return fmt.Errorf("cluster: NPU %d already draining", i)
	}
	if s.cordoned[i] {
		return fmt.Errorf("cluster: NPU %d is cordoned; uncordon it before retiring", i)
	}
	if s.active <= 1 {
		return fmt.Errorf("cluster: cannot retire the last active NPU")
	}
	s.draining[i] = true
	s.active--
	s.indexDrop(i)
	return nil
}

// Cordon takes backend i out of rotation without the scale-down
// accounting: its routed work keeps draining, no new work lands on it,
// and Uncordon returns it to service. Cordoning the last active backend
// is refused — a node must always accept work.
func (s *State) Cordon(i int) error {
	if i < 0 || i >= len(s.freeAt) {
		return fmt.Errorf("cluster: cordon of unknown NPU %d (node size %d)", i, len(s.freeAt))
	}
	if s.failed[i] {
		return fmt.Errorf("cluster: NPU %d has failed", i)
	}
	if s.draining[i] {
		return fmt.Errorf("cluster: NPU %d is draining", i)
	}
	if s.cordoned[i] {
		return fmt.Errorf("cluster: NPU %d already cordoned", i)
	}
	if s.active <= 1 {
		return fmt.Errorf("cluster: cannot cordon the last active NPU")
	}
	s.cordoned[i] = true
	s.active--
	s.indexDrop(i)
	return nil
}

// Uncordon returns a cordoned backend to rotation. A backend that
// failed while cordoned stays lost: nothing of a failed slot ever
// serves again.
func (s *State) Uncordon(i int) error {
	if i < 0 || i >= len(s.freeAt) {
		return fmt.Errorf("cluster: uncordon of unknown NPU %d (node size %d)", i, len(s.freeAt))
	}
	if s.failed[i] {
		return fmt.Errorf("cluster: NPU %d has failed", i)
	}
	if !s.cordoned[i] {
		return fmt.Errorf("cluster: NPU %d is not cordoned", i)
	}
	s.cordoned[i] = false
	s.active++
	s.indexUncordon(i)
	return nil
}

// Fail removes backend i involuntarily at cycle now — the chaos
// counterpart of Retire — and answers how many requests routed to it
// were still in flight. Work whose fluid horizon had drained by now
// stays completed on the lost backend; the rest is the caller's to
// re-submit through the router. Horizons are committed in nondecreasing
// order, so the in-flight requests are the last ones committed to i: a
// caller that appends a request to a backend's stream exactly when it
// commits it here (serving.NodeSession.route) reclaims them as the tail
// of that stream, in routing (arrival) order. now must be nondecreasing
// across Fail and InFlight calls. The backend's fluid state is cleared:
// nothing of a failed slot is ever reused (AddNPUWithSpeed appends
// fresh slots). Failing the last active backend is refused — that would
// leave the routers with zero routable NPUs.
func (s *State) Fail(i int, now int64) (int, error) {
	if i < 0 || i >= len(s.freeAt) {
		return 0, fmt.Errorf("cluster: failure of unknown NPU %d (node size %d)", i, len(s.freeAt))
	}
	if s.failed[i] {
		return 0, fmt.Errorf("cluster: NPU %d already failed", i)
	}
	if s.Routable(i) && s.active <= 1 {
		return 0, fmt.Errorf("cluster: cannot fail the last active NPU")
	}
	inFlight := s.InFlight(i, now)
	if s.Routable(i) {
		s.active--
	}
	s.failed[i] = true
	s.horizons[i], s.heads[i], s.freeAt[i] = nil, 0, 0
	s.indexFail(i)
	return inFlight, nil
}

// FreeAt reports backend i's fluid completion horizon: the cycle at
// which everything routed to it so far is estimated to have drained.
func (s *State) FreeAt(i int) int64 { return s.freeAt[i] }

// InFlight counts the requests routed to NPU i whose fluid completion
// horizon has not drained by cycle now. now must be nondecreasing across
// calls: drained horizons are pruned and never rescanned.
func (s *State) InFlight(i int, now int64) int {
	h := s.horizons[i]
	head := s.heads[i]
	for head < len(h) && h[head] <= now {
		head++
	}
	// Compact once the drained prefix dominates, so a long-lived
	// streaming session does not hold every horizon it ever routed.
	if head > 64 && head*2 >= len(h) {
		n := copy(h, h[head:])
		s.horizons[i] = h[:n]
		head = 0
	}
	s.heads[i] = head
	return len(s.horizons[i]) - head
}

// Backlog reports NPU i's estimated queued work at cycle now, in cycles.
func (s *State) Backlog(i int, now int64) int64 {
	b := s.freeAt[i] - now
	if b < 0 {
		b = 0
	}
	return b
}

// Commit records a routing decision, advancing the target NPU's fluid
// horizon by the request's estimated service time.
func (s *State) Commit(target int, t *workload.Task) {
	s.CommitCycles(target, t, t.EstimatedCycles)
}

// CommitCycles is Commit with the committed service time given: the
// request's estimate at the speed the target serves it, which on a
// slowed NPU exceeds the nominal t.EstimatedCycles.
func (s *State) CommitCycles(target int, t *workload.Task, cycles int64) {
	start := s.freeAt[target]
	if t.Arrival > start {
		start = t.Arrival
	}
	s.freeAt[target] = start + cycles
	s.horizons[target] = append(s.horizons[target], s.freeAt[target])
	s.indexCommit(target)
}

// roundRobinRouter cycles through the routable NPUs in dispatch order.
// On a fixed fleet the cursor walk is the original modulo step.
type roundRobinRouter struct {
	next int
}

func (r *roundRobinRouter) Decide(_ *workload.Task, st *State) int {
	n := st.NPUs()
	for tries := 0; tries < n; tries++ {
		target := r.next % n
		r.next++
		if st.Routable(target) {
			return target
		}
	}
	return 0 // unreachable while the state keeps one active backend
}

// leastQueuedRouter routes to the routable NPU with the fewest requests
// whose (estimated) work has not yet drained at the arrival instant.
// Ties go to the lowest NPU index. The decision comes from the state's
// queued index (index.go) in O(log n); router_test.go retains the
// historic linear scan as a reference and proves the decisions
// identical, including across chaos events and autoscale churn.
type leastQueuedRouter struct{}

func (leastQueuedRouter) Decide(t *workload.Task, st *State) int {
	return st.leastQueuedTarget(t.Arrival)
}

// leastWorkRouter routes to the routable NPU that would finish the
// request first by Algorithm 1's estimates: least backlog on a
// homogeneous fleet, least normalized completion time (backlog +
// estimate x speed) on a heterogeneous one. Ties go to the lowest NPU
// index. The decision comes from the state's work index (index.go) in
// O(log n); router_test.go retains the linear scan as a reference.
type leastWorkRouter struct{}

func (leastWorkRouter) Decide(t *workload.Task, st *State) int {
	return st.leastWorkTarget(t.Arrival, t.EstimatedCycles)
}
