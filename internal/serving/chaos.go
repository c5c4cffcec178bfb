package serving

// chaos.go is the fault-injection surface of the streaming node
// session: timed operations (NPU failure, slowdown/restore,
// cordon/uncordon) scheduled at a cycle of the deterministic stream
// clock (ScheduleCycle) and fired interleaved with the autoscaler's
// ticks as arrivals, or an explicit AdvanceToCycle, advance the
// session. The scenario engine (internal/scenario) is the declarative
// driver; the mechanics live here because they are inseparable from the
// routing state:
//
//   - fail: the backend is removed immediately (involuntary loss —
//     unlike the autoscaler's voluntary Retire, which lets routed work
//     finish). Work whose fluid horizon had drained by the failure
//     instant stays completed; everything still in flight is reclaimed
//     from the lost backend's stream and re-submitted through the
//     shared router at the failure time, exercising re-routing under
//     loss. The backend's stream is the reclaim ledger: route appends
//     each request to it exactly when the router state commits the
//     request's horizon, so the in-flight requests are its tail, and a
//     failure may be scheduled at any point of the stream. Closed-loop
//     clients append without routing, so a node with pinned clients
//     refuses failures. An attached scaler sees the shrunken fleet on
//     its next tick and recovers toward the SLO.
//   - slowdown/restore: a slowed backend serves work routed to it
//     during the slow window at factor× its nominal service time — the
//     backend records the factor next to the request, its execution
//     scales every instruction's latency by it (keeping every commit
//     boundary) and its estimate scales with it, so the fluid router
//     state, the scaler's latency signal and the realized simulation
//     all see the degradation consistently. Work already queued before
//     the slowdown keeps its nominal speed (the approximation a
//     per-backend offline simulation affords); a reclaimed request is
//     re-routed as a copy of its nominal request, and its new backend
//     applies its own speed.
//   - cordon/uncordon: the backend leaves rotation reversibly — its
//     routed work drains, nothing new lands on it, and no scale-down
//     credit is taken (the slot still counts against MaxNPUs).
//
// Everything is deterministic: operations fire in (cycle, schedule
// order), before any autoscale tick due at the same cycle, and before
// the routing decision of any arrival at or after their cycle. The
// same stream plus the same schedule replays byte-identically, which is
// what makes chaos testable in CI (chaos_test.go and the scenario
// corpus lock this in).

import (
	"fmt"
	"math"

	"repro/internal/npu"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// OpKind identifies a scheduled chaos operation.
type OpKind int

const (
	// FailNPU removes the backend involuntarily; its in-flight work is
	// re-routed through the node's router at the failure time.
	FailNPU OpKind = iota
	// SlowNPU degrades the backend: work routed to it while slowed
	// takes Factor times its nominal service time.
	SlowNPU
	// RestoreNPU returns a slowed backend to nominal speed.
	RestoreNPU
	// CordonNPU takes the backend out of rotation reversibly, with no
	// scale-down credit.
	CordonNPU
	// UncordonNPU returns a cordoned backend to rotation.
	UncordonNPU
)

// String names the operation kind.
func (k OpKind) String() string {
	switch k {
	case FailNPU:
		return "fail"
	case SlowNPU:
		return "slowdown"
	case RestoreNPU:
		return "restore"
	case CordonNPU:
		return "cordon"
	case UncordonNPU:
		return "uncordon"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// NodeOp is one chaos operation against a node session's backend.
type NodeOp struct {
	// Kind selects the operation.
	Kind OpKind
	// NPU is the target backend index (in spin-up order: the initial
	// fleet is 0..NPUs-1, scale-ups append).
	NPU int
	// Factor is the service-time multiplier of a SlowNPU operation
	// (> 1); it must be zero for every other kind.
	Factor float64
}

// Validate checks the operation's static invariants: a non-negative
// target, a known kind, and a factor that is finite and above 1 on a
// slowdown and zero on every other kind. State-dependent ones (failing
// an already-failed backend, cordoning the last active one) surface
// when the operation fires.
func (op NodeOp) Validate() error {
	if op.NPU < 0 {
		return fmt.Errorf("negative NPU index %d", op.NPU)
	}
	switch op.Kind {
	case SlowNPU:
		// Written so that NaN fails it too.
		if !(op.Factor > 1 && op.Factor <= npu.MaxSpeedFactor) {
			return fmt.Errorf("slowdown factor must be finite, exceed 1 and be at most %d, got %v", npu.MaxSpeedFactor, op.Factor)
		}
	case FailNPU, RestoreNPU, CordonNPU, UncordonNPU:
		if op.Factor != 0 {
			return fmt.Errorf("factor %v set on a %s operation", op.Factor, op.Kind)
		}
	default:
		return fmt.Errorf("unknown operation kind %d", int(op.Kind))
	}
	return nil
}

// NodeEvent is one entry of the node's fleet timeline: the start
// anchor, every applied autoscaler action, and every fired chaos
// operation, in stream order.
type NodeEvent struct {
	// Cycle is the stream instant the event applied at.
	Cycle int64
	// Kind is "start", "scale", "drain", "fail", "slowdown",
	// "restore", "cordon" or "uncordon".
	Kind string
	// NPU is the target backend index; -1 for start and scale events.
	NPU int
	// Delta is the change in routable backends the event caused.
	Delta int
	// Active is the routable backend count after the event.
	Active int
	// Note carries event detail (reclaimed request count, slow factor).
	Note string
}

// nodeOp is a scheduled operation awaiting its fire time.
type nodeOp struct {
	at  int64 // stream cycle
	seq int   // schedule order, the tie-break at equal cycles
	op  NodeOp
}

// ScheduleCycle queues op to fire when the stream clock reaches cycle
// at. Operations may be scheduled at any point of the stream so long as
// they are not in the past — the clock never rewinds — and fire
// deterministically as arrivals (or an explicit AdvanceToCycle) advance
// the clock past their cycle: in time order, schedule order at equal
// cycles, and always before an autoscale tick due at the same cycle, so
// the scaler sees the post-event fleet. A FailNPU is refused once
// closed-loop clients are pinned (OfferClients): their requests never
// pass the router, so a failure could not reclaim them.
func (ns *NodeSession) ScheduleCycle(at int64, op NodeOp) error {
	if ns.closed {
		return fmt.Errorf("serving: node session closed")
	}
	if ns.drained {
		return fmt.Errorf("serving: node session drained")
	}
	if at < 0 {
		return fmt.Errorf("serving: negative operation cycle %d", at)
	}
	if at < ns.lastArrival {
		return fmt.Errorf("serving: operation at cycle %d is in the past (stream clock at %d)",
			at, ns.lastArrival)
	}
	if err := op.Validate(); err != nil {
		return fmt.Errorf("serving: %w", err)
	}
	if op.Kind == FailNPU && ns.clientNext > 0 {
		return errClientsPinned
	}
	ns.pending = append(ns.pending, nodeOp{at: at, seq: ns.opSeq, op: op})
	ns.opSeq++
	// Keep the queue sorted by (cycle, schedule order); schedules are
	// rare and the queue is short, so insertion sort is plenty.
	for i := len(ns.pending) - 1; i > 0; i-- {
		if ns.pending[i-1].at < ns.pending[i].at ||
			(ns.pending[i-1].at == ns.pending[i].at && ns.pending[i-1].seq < ns.pending[i].seq) {
			break
		}
		ns.pending[i-1], ns.pending[i] = ns.pending[i], ns.pending[i-1]
	}
	return nil
}

// AdvanceToCycle advances the stream clock to cycle now without
// offering traffic, firing every scheduled operation and autoscale tick
// due on the way — the control plane's stepping primitive between
// buffered arrivals, and its way to flush events past the last arrival
// (a failure after the final request, a recovery window) before Drain.
// The clock never moves backward; subsequent submissions must arrive at
// or after now.
func (ns *NodeSession) AdvanceToCycle(now int64) error {
	if ns.closed {
		return fmt.Errorf("serving: node session closed")
	}
	if ns.drained {
		return fmt.Errorf("serving: node session drained")
	}
	if now < ns.lastArrival {
		return fmt.Errorf("serving: cannot advance backward to cycle %d (stream clock already at %d)",
			now, ns.lastArrival)
	}
	if err := ns.advanceTo(now); err != nil {
		return err
	}
	ns.lastArrival = now
	return nil
}

// Timeline returns the node's fleet timeline so far: the start anchor,
// applied scaling actions and fired chaos operations, in stream order.
func (ns *NodeSession) Timeline() []NodeEvent {
	return append([]NodeEvent(nil), ns.timeline...)
}

// record appends one fleet-timeline event. The node-level stats memo is
// keyed on submissions, and a timeline change (a drain, scale, chaos
// operation or failure reclaim) need not come with one, so every event
// invalidates it.
func (ns *NodeSession) record(at int64, kind string, npuIdx, delta int, note string) {
	ns.timeline = append(ns.timeline, NodeEvent{
		Cycle: at, Kind: kind, NPU: npuIdx, Delta: delta,
		Active: ns.state.Active(), Note: note,
	})
	ns.statsValid = false
}

// advanceTo fires every scheduled operation and autoscale tick due at
// or before the stream clock now, interleaved in time order (operations
// first at equal cycles). Submit calls it before every routing decision
// so the router and the scaler always see the post-event fleet.
func (ns *NodeSession) advanceTo(now int64) error {
	for {
		const never = int64(math.MaxInt64)
		opAt, tickAt := never, never
		if len(ns.pending) > 0 && ns.pending[0].at <= now {
			opAt = ns.pending[0].at
		}
		if ns.scale != nil && ns.scale.nextTick <= now {
			tickAt = ns.scale.nextTick
		}
		switch {
		case opAt == never && tickAt == never:
			return nil
		case opAt <= tickAt:
			op := ns.pending[0]
			ns.pending = ns.pending[1:]
			if err := ns.apply(op); err != nil {
				return fmt.Errorf("serving: %s npu%d at %.2fms: %w",
					op.op.Kind, op.op.NPU, ns.srv.cfg.Millis(op.at), err)
			}
		default:
			if err := ns.evaluate(ns.scale.nextTick); err != nil {
				return err
			}
			ns.scale.nextTick += ns.scale.tickCycles
		}
	}
}

// apply fires one scheduled operation.
func (ns *NodeSession) apply(o nodeOp) error {
	i := o.op.NPU
	if i >= len(ns.backends) {
		return fmt.Errorf("unknown NPU (node size %d)", len(ns.backends))
	}
	switch o.op.Kind {
	case FailNPU:
		return ns.failNPU(i, o.at)
	case SlowNPU:
		if ns.state.Failed(i) {
			return fmt.Errorf("NPU has failed")
		}
		// The factor stacks on the backend's nominal speed — a slow
		// tier's derate on heterogeneous fleets — and restore returns
		// to that nominal, not to 1.
		base := ns.state.Speed(i)
		if ns.speed[i] != base {
			return fmt.Errorf("NPU already slowed x%g; restore it first", ns.speed[i]/base)
		}
		if base*o.op.Factor > npu.MaxSpeedFactor {
			return fmt.Errorf("slowdown x%g on a x%g tier exceeds x%d", o.op.Factor, base, npu.MaxSpeedFactor)
		}
		ns.speed[i] = base * o.op.Factor
		ns.record(o.at, "slowdown", i, 0, fmt.Sprintf("x%g", o.op.Factor))
	case RestoreNPU:
		base := ns.state.Speed(i)
		if ns.speed[i] == base {
			return fmt.Errorf("NPU is not slowed")
		}
		ns.record(o.at, "restore", i, 0, fmt.Sprintf("was x%g", ns.speed[i]/base))
		ns.speed[i] = base
	case CordonNPU:
		if err := ns.state.Cordon(i); err != nil {
			return err
		}
		ns.record(o.at, "cordon", i, -1, "")
	case UncordonNPU:
		if err := ns.state.Uncordon(i); err != nil {
			return err
		}
		ns.record(o.at, "uncordon", i, +1, "")
	}
	return nil
}

// failNPU removes backend i at cycle at: completed work stays with the
// lost backend's statistics, in-flight work is reclaimed from the tail
// of its stream and re-routed through the node's router as re-arrivals
// at the failure instant.
func (ns *NodeSession) failNPU(i int, at int64) error {
	wasRoutable := ns.state.Routable(i)
	inFlight, err := ns.state.Fail(i, at)
	if err != nil {
		return err
	}
	ns.speed[i] = ns.state.Speed(i)
	reclaimed, ids := ns.backends[i].reclaimTail(inFlight)
	delta := 0
	if wasRoutable {
		delta = -1
	}
	ns.record(at, "fail", i, delta, fmt.Sprintf("reclaimed %d", len(reclaimed)))
	ns.reclaims += len(reclaimed)
	for k, t := range reclaimed {
		id := 0
		if tr := ns.tracer(); tr != nil {
			id = ids[k]
			tr.Record(telemetry.Event{
				Cycle: at, Kind: telemetry.KindReclaim,
				Req: id, NPU: i, Tier: ns.tierName(i),
			})
		}
		rearrival := *t
		rearrival.Arrival = at
		if err := ns.route(&rearrival, id); err != nil {
			return fmt.Errorf("re-routing reclaimed request %d: %w", t.ID, err)
		}
	}
	return nil
}

// reclaimTail cuts the last n requests, with their factors and trace
// IDs, off the session's stream and returns the requests and their IDs
// (nil on an untraced backend) in submission order — the failure-reclaim
// path pulling a lost backend's in-flight work back out. The stream no
// longer extends the one the live simulator admitted, so the next Stats
// rebuilds it from cycle 0.
func (ss *Session) reclaimTail(n int) ([]*workload.Task, []int) {
	if n == 0 {
		return nil, nil
	}
	keep := len(ss.reqs) - n
	tail := append([]*workload.Task(nil), ss.reqs[keep:]...)
	clear(ss.reqs[keep:])
	ss.reqs, ss.count = ss.reqs[:keep], keep
	if ss.factors != nil {
		ss.factors = ss.factors[:keep]
	}
	var ids []int
	if ss.traced {
		ids = append(ids, ss.ids[keep:]...)
		ss.ids = ss.ids[:keep]
	}
	ss.live = nil
	ss.dirty = true
	ss.statsValid = false
	return tail, ids
}
