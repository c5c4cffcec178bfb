package serving

// node.go lifts the streaming Session from one NPU to a multi-NPU
// system node — the deployment the paper scopes out as future work
// (Section II-C), as a long-lived endpoint instead of the batch
// cluster.Run. A NodeSession drives the cluster package's incremental
// Router over its fluid State: every submitted or offered request is
// routed the moment it arrives and lands in that NPU's local Session
// backend, which keeps its own scheduler, batching window and
// incremental statistics. Because the batch Route loop drives the
// identical Router, a streamed request sequence lands on exactly the
// NPUs the batch router would have chosen (node_test.go proves the
// buckets byte-identical).
//
// Closed-loop clients (OfferClients) pin to a routable NPU round-robin
// — the affinity real load balancers give session-sticky traffic —
// because a closed loop couples each arrival to the completion of the
// same client's previous request on its serving NPU. The fluid router
// state keeps balancing the open-loop and submitted traffic around that
// pinned load. Pinned requests never pass the router, so a node with
// pinned clients refuses failures (see ScheduleCycle).

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// NodeConfig parameterizes a streaming multi-NPU node session.
type NodeConfig struct {
	// NPUs is the initial accelerator count in the node (>= 1). With an
	// autoscaler attached it is the starting fleet size and must lie
	// inside the configured [MinNPUs, MaxNPUs] bounds.
	NPUs int
	// Routing selects the router policy dispatching requests to NPUs.
	Routing cluster.RoutingPolicy
	// Session is the per-NPU local configuration: every backend runs
	// this scheduler, batching window and warm-up cut. Backends spun up
	// by a scale-up run the identical configuration.
	Session SessionConfig
	// Fleet partitions the node into weighted hardware tiers (see
	// FleetFromTemplate); empty keeps every backend on the server's
	// base config. Initial backends are assigned in tier order by
	// largest-remainder apportionment, and every scale-up picks the
	// tier furthest below its weight (autoscale.PickTier).
	Fleet []Tier
	// Autoscale attaches an SLO-driven scaling policy that grows and
	// shrinks the backend set as the stream advances; nil keeps the
	// fleet fixed.
	Autoscale *AutoscaleConfig
	// Trace attaches the telemetry layer: per-request lifecycle events
	// into Trace.Tracer and one fleet sample per autoscale tick into
	// Trace.Recorder (see internal/telemetry). Nil disables both, and a
	// disabled node runs byte-identically to one without the field.
	Trace *telemetry.Trace
}

// NodeStats aggregates a node session's stream: node-wide steady-state
// statistics over the union of every NPU's measured requests, plus each
// NPU's own view. The node's throughput window is the slowest NPU's
// makespan.
type NodeStats struct {
	// BatchStats is the node-wide aggregate over the union of every
	// backend's measured requests.
	BatchStats
	// PerNPU holds each backend's statistics over its routed share —
	// including backends a scale-down retired, whose routed requests
	// keep counting. An NPU that served nothing (or whose requests all
	// fell inside the warm-up window) reports a zero entry with only
	// Requests and Dispatched set.
	PerNPU []BatchStats
	// Scaling is the autoscaler's timeline view (fleet size over time,
	// scale events, SLO-violation fraction); nil unless a scaler is
	// attached.
	Scaling *ScalingStats
	// Tiers breaks the aggregate down per hardware tier, in template
	// order; nil on homogeneous fleets, so their stats are unchanged by
	// the field's existence.
	Tiers []TierStats
}

// NodeSession is an open node-level serving endpoint: one streaming
// router in front of per-NPU Session backends. A NodeSession is not
// safe for concurrent use.
type NodeSession struct {
	srv      *Server
	router   cluster.Router
	state    *cluster.State
	backends []*Session
	// session is the per-NPU configuration scale-ups clone into fresh
	// backends.
	session SessionConfig
	// scale is the attached autoscaler state; nil on fixed fleets.
	scale *scaling

	// timeline is the fleet history: a start anchor, applied scaling
	// actions, and fired chaos operations (see chaos.go).
	timeline []NodeEvent
	// pending holds scheduled chaos operations sorted by (cycle,
	// schedule order); opSeq stamps that order.
	pending []nodeOp
	opSeq   int
	// speed is the per-backend service-time multiplier. Its nominal is
	// the router state's Speed — the tier's clock derate, 1 everywhere
	// on homogeneous fleets; a SlowNPU operation stacks on it and
	// RestoreNPU returns to it.
	speed []float64
	// tiers is the heterogeneous fleet's hardware classes (nil on
	// homogeneous fleets); tierOf maps each backend to its tier index,
	// and tierSpeed/tierWeights cache each tier's derate factor and
	// apportionment weight. tierActive is the reused per-tier
	// active-count scratch buffer behind pickTier and the scaler's
	// Metrics snapshot.
	tiers       []Tier
	tierOf      []int
	tierSpeed   []float64
	tierWeights []int
	tierActive  []int

	// estRing is a fixed ring of the most recent fluid latency
	// estimates (ms) routed through the node — the control plane's
	// tick-window percentile source; estCount is the total ever pushed.
	estRing  []float64
	estCount int

	// trace is the attached telemetry layer (nil when disabled):
	// traceNext numbers submissions with stable per-request IDs,
	// reclaims counts failure reclaims cumulatively, and lastCompleted/
	// lastReclaims anchor the tick sample's counter deltas. tierSyms
	// pre-interns the tier names (one Sym per tier, template order) and
	// modelSyms caches model-name Syms indexed by the task's small
	// generator-assigned ModelID, so the per-submit recording path
	// never compares strings.
	trace         *telemetry.Trace
	traceNext     int
	reclaims      int
	lastCompleted int
	lastReclaims  int
	tierSyms      []telemetry.Sym
	modelSyms     []telemetry.Sym

	lastArrival int64
	submitted   int
	clientNext  int // round-robin cursor for closed-loop client affinity
	drained     bool
	closed      bool

	// last memoizes the node statistics computed at statsAt submissions,
	// so polling Stats on an unchanged node re-derives nothing; every
	// timeline event (record) clears statsValid.
	last       NodeStats
	statsAt    int
	statsValid bool
	// merged and tierSets are the node-wide and per-tier sample sets
	// Stats merges the backends' samples into, and sorted the scratch
	// buffer statsOf sorts every backend's, the merged and each tier's
	// latencies in. All three are overwritten by each Stats and kept
	// between polls, so a poll allocates only for new requests; Close
	// releases them.
	merged   sampleSet
	tierSets []sampleSet
	sorted   []float64
}

// OpenNode validates the configuration and opens a node session with
// one Session backend per NPU. A heterogeneous fleet (NodeConfig.Fleet)
// assigns the initial backends to tiers in tier order by
// largest-remainder apportionment of the weights.
func (s *Server) OpenNode(cfg NodeConfig) (*NodeSession, error) {
	if cfg.NPUs <= 0 {
		return nil, fmt.Errorf("serving: non-positive NPU count %d", cfg.NPUs)
	}
	router, err := cluster.NewRouter(cfg.Routing)
	if err != nil {
		return nil, err
	}
	var tierSpeed []float64
	if len(cfg.Fleet) > 0 {
		if tierSpeed, err = fleetSpeeds(cfg.Fleet, s.cfg); err != nil {
			return nil, err
		}
	}
	backends := make([]*Session, cfg.NPUs)
	for i := range backends {
		if backends[i], err = s.Open(cfg.Session); err != nil {
			return nil, err
		}
	}
	var scale *scaling
	if cfg.Autoscale != nil {
		if scale, err = s.newScaling(*cfg.Autoscale, cfg.NPUs); err != nil {
			return nil, err
		}
	}
	ns := &NodeSession{
		srv:      s,
		router:   router,
		state:    cluster.NewState(cfg.NPUs),
		backends: backends,
		session:  cfg.Session,
		scale:    scale,
		speed:    make([]float64, cfg.NPUs),
		estRing:  make([]float64, estWindow),
		// The timeline accretes one event per applied scale action and
		// chaos operation; starting with room for a typical run's worth
		// amortizes the appends off the tick path.
		timeline: make([]NodeEvent, 0, 64),
	}
	for i := range ns.speed {
		ns.speed[i] = 1
	}
	if len(cfg.Fleet) > 0 {
		ns.tiers = append([]Tier(nil), cfg.Fleet...)
		ns.tierSets = make([]sampleSet, len(cfg.Fleet))
		ns.tierSpeed = tierSpeed
		ns.tierWeights = make([]int, len(cfg.Fleet))
		for t, tier := range cfg.Fleet {
			ns.tierWeights[t] = tier.Weight
		}
		// Rebuild the router state tier-aware: speed-conscious routers
		// compare backends in normalized completion time, so each slot
		// carries its tier's derate factor.
		counts := apportionFleet(ns.tierWeights, cfg.NPUs)
		ns.state = cluster.NewState(0)
		ns.tierOf = make([]int, 0, cfg.NPUs)
		for t, c := range counts {
			for k := 0; k < c; k++ {
				ns.tierOf = append(ns.tierOf, t)
			}
		}
		for i, t := range ns.tierOf {
			ns.state.AddNPUWithSpeed(tierSpeed[t])
			ns.speed[i] = tierSpeed[t]
		}
	}
	if cfg.Trace != nil {
		ns.trace = cfg.Trace
		if tr := ns.trace.Tracer; tr != nil {
			for _, b := range ns.backends {
				b.traced = true
			}
			for _, tier := range ns.tiers {
				ns.tierSyms = append(ns.tierSyms, tr.InternTier(tier.Name))
			}
		}
	}
	ns.record(0, "start", -1, 0, "")
	return ns, nil
}

// estWindow is the estimate ring's size: enough recent samples for a
// stable tick-window percentile without holding the whole stream.
const estWindow = 256

// NPUs reports the node size.
func (ns *NodeSession) NPUs() int { return len(ns.backends) }

// Submit routes one request through the node's router and appends it to
// the chosen NPU's stream. Routing is incremental, so requests must be
// submitted in nondecreasing arrival order (the fluid router state
// drains destructively); generated streams (Offer) arrive ordered by
// construction.
func (ns *NodeSession) Submit(t *workload.Task) error {
	if ns.closed {
		return fmt.Errorf("serving: node session closed")
	}
	if ns.drained {
		return fmt.Errorf("serving: node session drained; no further submissions")
	}
	if t == nil || t.Program == nil {
		return fmt.Errorf("serving: nil request")
	}
	if t.Arrival < ns.lastArrival {
		return fmt.Errorf("serving: node routing is incremental; submit in nondecreasing arrival order (arrival %d after %d)",
			t.Arrival, ns.lastArrival)
	}
	// Fire every scheduled chaos operation and autoscale tick due before
	// this arrival, so the routing decision sees the post-event fleet.
	if err := ns.advanceTo(t.Arrival); err != nil {
		return err
	}
	id := 0
	if tr := ns.tracer(); tr != nil {
		id = ns.traceSubmit(tr, t)
	}
	if err := ns.route(t, id); err != nil {
		return err
	}
	ns.lastArrival = t.Arrival
	ns.submitted++
	return nil
}

// route makes one routing decision and commits it: the shared path of
// fresh submissions and failure-reclaimed re-arrivals, id being the
// request's trace request ID. The request queues at the target backend's
// current speed, and the fluid router state commits its estimate at that
// speed. route is the only path that
// appends to a backend's stream and commits a horizon, one of each per
// request, so a backend's in-flight requests are the tail of its stream
// — the ledger failNPU reclaims from. Pinned closed-loop clients append
// without committing; ScheduleCycle refuses failures once they exist.
func (ns *NodeSession) route(t *workload.Task, id int) error {
	target := ns.router.Decide(t, ns.state)
	factor := ns.speed[target]
	if err := ns.backends[target].submit(t, factor, id); err != nil {
		return err
	}
	ns.state.CommitCycles(target, t, t.EstimateAt(factor))
	// The request's fluid latency estimate (queueing plus service on its
	// target): the scaler's per-tick latency signal, and the ring the
	// control plane's snapshot percentiles read from.
	est := ns.srv.cfg.Millis(ns.state.FreeAt(target) - t.Arrival)
	ns.estRing[ns.estCount%estWindow] = est
	ns.estCount++
	if tr := ns.tracer(); tr != nil {
		tr.RecordRoute(t.Arrival, id, target, ns.tierSym(target), est)
		if factor > 1 {
			tr.RecordStretch(t.Arrival, id, target, ns.tierSym(target), factor)
		}
	}
	return nil
}

// Offer drives the node's open-loop arrival process: one Poisson stream
// for the spec (OfferedLoad is normalized to a single NPU's capacity, so
// a node of N NPUs saturates near load N), routed request-by-request
// through the node's router. It returns how many requests arrived.
func (ns *NodeSession) Offer(spec Spec, rng *rand.Rand) (int, error) {
	return ns.offer(func() ([]*workload.Task, error) { return ns.srv.Generate(spec, rng) })
}

// OfferRamp drives a piecewise-constant offered-load profile — the
// diurnal/burst scenario autoscaling exists for: it generates the ramp's
// stream (Server.GenerateRamp, which sets the segment, idle-window and
// empty-trough rules) and routes it through the node's router in
// arrival order. It returns how many requests arrived across the whole
// ramp.
func (ns *NodeSession) OfferRamp(base Spec, loads []float64, rng *rand.Rand) (int, error) {
	return ns.offer(func() ([]*workload.Task, error) { return ns.srv.GenerateRamp(base, loads, rng) })
}

// offer generates a stream and submits it request by request. A closed
// or drained session is refused before anything is drawn.
func (ns *NodeSession) offer(generate func() ([]*workload.Task, error)) (int, error) {
	if ns.closed {
		return 0, fmt.Errorf("serving: node session closed")
	}
	if ns.drained {
		return 0, fmt.Errorf("serving: node session drained; no further submissions")
	}
	tasks, err := generate()
	if err != nil {
		return 0, err
	}
	for _, t := range tasks {
		if err := ns.Submit(t); err != nil {
			return 0, err
		}
	}
	return len(tasks), nil
}

// OfferClients spreads a closed-loop client population across the
// node's routable NPUs with round-robin affinity: client c pins to the
// (cursor+c) mod R-th of the R routable backends and runs its closed
// loop against that backend at the backend's current speed (see
// Session.OfferClients). Pinned closed-loop traffic is invisible to the
// fluid router state — the router keeps balancing the open-loop and
// submitted streams — so no failure could reclaim it: ScheduleCycle refuses
// failures once clients are pinned. It returns how many requests were
// realized across all NPUs.
func (ns *NodeSession) OfferClients(spec ClientSpec, rng *rand.Rand) (int, error) {
	if ns.closed {
		return 0, fmt.Errorf("serving: node session closed")
	}
	if ns.drained {
		return 0, fmt.Errorf("serving: node session drained; no further submissions")
	}
	if ns.scale != nil {
		// Closed-loop clients pin to their backend for the whole run; a
		// scale-down could never drain a pinned backend, so the two modes
		// are mutually exclusive.
		return 0, fmt.Errorf("serving: closed-loop clients pin to their NPU; autoscaling requires routed traffic (Submit/Offer)")
	}
	if len(ns.pending) > 0 {
		// The same pinning conflict: a failed or cordoned backend could
		// never shed its pinned clients.
		return 0, errClientsPinned
	}
	if spec.Clients <= 0 {
		return 0, fmt.Errorf("serving: non-positive client count %d", spec.Clients)
	}
	var routable []int
	for i := range ns.backends {
		if ns.state.Routable(i) {
			routable = append(routable, i)
		}
	}
	perNPU := make([]int, len(ns.backends))
	for c := 0; c < spec.Clients; c++ {
		perNPU[routable[ns.clientNext%len(routable)]]++
		ns.clientNext++
	}
	var stamp func(*workload.Task) int
	if tr := ns.tracer(); tr != nil {
		stamp = func(t *workload.Task) int { return ns.traceSubmit(tr, t) }
	}
	total := 0
	for i, clients := range perNPU {
		if clients == 0 {
			continue
		}
		sub := spec
		sub.Clients = clients
		n, err := ns.backends[i].offerClients(sub, rng, ns.speed[i], stamp)
		if err != nil {
			return total, fmt.Errorf("serving: NPU %d: %w", i, err)
		}
		total += n
		ns.submitted += n
	}
	return total, nil
}

// errClientsPinned refuses closed-loop clients and failures on one node:
// a pinned client's requests never pass the router, so neither a
// failure's reclaim nor a cordon's rotation change could move them.
var errClientsPinned = errors.New("serving: closed-loop clients pin to their NPU; chaos operations require routed traffic (Submit/Offer)")

// Pending reports how many requests have been submitted node-wide.
func (ns *NodeSession) Pending() int { return ns.submitted }

// EstimateWindow appends the node's most recent fluid latency estimates
// (ms, oldest first, at most the ring size) to dst and returns it — the
// control plane's snapshot percentile source. Unlike Stats it touches
// no backend and simulates nothing.
func (ns *NodeSession) EstimateWindow(dst []float64) []float64 {
	n := ns.estCount
	if n > estWindow {
		n = estWindow
	}
	start := ns.estCount - n
	for k := 0; k < n; k++ {
		dst = append(dst, ns.estRing[(start+k)%estWindow])
	}
	return dst
}

// BackendView is one NPU's entry in a point-in-time fleet listing.
type BackendView struct {
	// NPU is the backend index in spin-up order.
	NPU int
	// Tier is the backend's hardware-tier name; empty on homogeneous
	// fleets.
	Tier string
	// State is "active", "draining", "cordoned" or "failed".
	State string
	// Speed is the service-time multiplier: the tier's clock derate (1
	// on homogeneous fleets), raised further by a chaos slowdown.
	Speed float64
	// InFlight counts routed requests whose fluid horizon has not
	// drained at the stream clock.
	InFlight int
	// BacklogMS is the fluid backlog ahead of a new arrival, in ms.
	BacklogMS float64
	// Routed is how many requests the backend has ever been handed.
	Routed int
}

// Fleet lists every backend's state at the current stream clock —
// the control plane's `list` view. It reads only the fluid router
// state, so it is cheap enough to poll between ticks.
func (ns *NodeSession) Fleet() []BackendView {
	out := make([]BackendView, len(ns.backends))
	for i := range ns.backends {
		out[i] = ns.view(i, ns.lastArrival)
	}
	return out
}

// view is backend i's fleet row at cycle at: the row Fleet lists and
// the tick sample records. A failed backend has no fluid state, so its
// in-flight count and backlog read zero.
func (ns *NodeSession) view(i int, at int64) BackendView {
	v := BackendView{NPU: i, Tier: ns.tierName(i), State: "active",
		Speed: ns.speed[i], Routed: ns.backends[i].Pending()}
	switch {
	case ns.state.Failed(i):
		v.State = "failed"
		return v
	case ns.state.Cordoned(i):
		v.State = "cordoned"
	case ns.state.Draining(i):
		v.State = "draining"
	}
	v.InFlight = ns.state.InFlight(i, at)
	v.BacklogMS = ns.srv.cfg.Millis(ns.state.Backlog(i, at))
	return v
}

// addBackend spins one fresh Session backend into the shared router
// state — the shared mechanics of autoscaler scale-up and operator
// `scale`. On a heterogeneous fleet, tier is the backend's hardware
// class (pickTier chooses it); homogeneous nodes pass -1.
func (ns *NodeSession) addBackend(tier int) error {
	b, err := ns.srv.Open(ns.session)
	if err != nil {
		return err
	}
	if ns.tracer() != nil {
		b.traced = true
	}
	sp := 1.0
	if tier >= 0 {
		sp = ns.tierSpeed[tier]
	}
	ns.backends = append(ns.backends, b)
	ns.state.AddNPUWithSpeed(sp)
	ns.speed = append(ns.speed, sp)
	if ns.tiers != nil {
		ns.tierOf = append(ns.tierOf, tier)
	}
	return nil
}

// tierCounts fills the reused scratch buffer with the number of
// routable backends per tier — pickTier's divisor inputs and the
// scaler's Metrics.TierActive view. Nil on homogeneous fleets.
func (ns *NodeSession) tierCounts() []int {
	if ns.tiers == nil {
		return nil
	}
	if ns.tierActive == nil {
		ns.tierActive = make([]int, len(ns.tiers))
	}
	for t := range ns.tierActive {
		ns.tierActive[t] = 0
	}
	for i := range ns.backends {
		if ns.state.Routable(i) {
			ns.tierActive[ns.tierOf[i]]++
		}
	}
	return ns.tierActive
}

// pickTier chooses the tier the next scale-up adds: the one furthest
// below its weighted share of the live fleet (D'Hondt). Homogeneous
// fleets answer -1.
func (ns *NodeSession) pickTier() int {
	if ns.tiers == nil {
		return -1
	}
	return autoscale.PickTier(ns.tierWeights, ns.tierCounts())
}

// ScaleTo sets the active fleet to n by opening fresh backends or
// retiring drain victims — the operator's `scale` command. With a
// scaler attached, n must lie inside its [MinNPUs, MaxNPUs] bounds (the
// scaler keeps adjusting from the new size on later ticks). The change
// applies at the current stream clock and is recorded on the timeline.
func (ns *NodeSession) ScaleTo(n int) error {
	if ns.closed {
		return fmt.Errorf("serving: node session closed")
	}
	if ns.drained {
		return fmt.Errorf("serving: node session drained")
	}
	if n < 1 {
		return fmt.Errorf("serving: non-positive fleet size %d", n)
	}
	if ns.scale != nil {
		if min, max := ns.scale.cfg.MinNPUs, ns.scale.cfg.MaxNPUs; n < min || n > max {
			return fmt.Errorf("serving: fleet size %d outside autoscale bounds [%d, %d]", n, min, max)
		}
	}
	at := ns.lastArrival
	applied := 0
	for ns.state.Active() < n {
		if err := ns.addBackend(ns.pickTier()); err != nil {
			return err
		}
		applied++
	}
	for ns.state.Active() > n {
		victim := ns.drainVictim(at)
		if victim < 0 {
			return fmt.Errorf("serving: no routable backend left to retire")
		}
		if err := ns.state.Retire(victim); err != nil {
			return err
		}
		applied--
	}
	if applied != 0 {
		ns.record(at, "scale", -1, applied, "manual")
	}
	return nil
}

// RetireBackend voluntarily drains one specific backend — the
// operator's `drain npu<i>` command, as opposed to the autoscaler's
// victim choice. Routed work completes, nothing new lands on it, and
// the timeline records a "drain" event at the current stream clock.
func (ns *NodeSession) RetireBackend(i int) error {
	if ns.closed {
		return fmt.Errorf("serving: node session closed")
	}
	if ns.drained {
		return fmt.Errorf("serving: node session drained")
	}
	if i < 0 || i >= len(ns.backends) {
		return fmt.Errorf("serving: unknown NPU %d (node size %d)", i, len(ns.backends))
	}
	if err := ns.state.Retire(i); err != nil {
		return err
	}
	ns.record(ns.lastArrival, "drain", i, -1, "")
	return nil
}

// Routed reports how many requests each NPU's backend holds; it keeps
// answering after Close.
func (ns *NodeSession) Routed() []int {
	out := make([]int, len(ns.backends))
	for i, b := range ns.backends {
		out[i] = b.Pending()
	}
	return out
}

// Stats computes the node's steady-state statistics: per-NPU views plus
// the aggregate over the union of measured requests. Statistics are
// incremental: only backends whose stream changed refresh, and an
// unbatched backend's refresh simulates just its new requests and
// projects the work still in flight (see Session).
func (ns *NodeSession) Stats() (NodeStats, error) {
	if ns.closed {
		return NodeStats{}, fmt.Errorf("serving: node session closed")
	}
	if ns.submitted == 0 {
		return NodeStats{}, fmt.Errorf("serving: no requests submitted")
	}
	if ns.statsValid && ns.statsAt == ns.submitted {
		return ns.last, nil
	}
	out := NodeStats{PerNPU: make([]BatchStats, len(ns.backends))}
	ns.merged.reset()
	for t := range ns.tierSets {
		ns.tierSets[t].reset()
	}
	for i, b := range ns.backends {
		if b.Pending() == 0 {
			continue
		}
		if err := b.refresh(); err != nil {
			return NodeStats{}, fmt.Errorf("serving: NPU %d: %w", i, err)
		}
		ns.merged.merge(&b.samples)
		if ns.tierSets != nil {
			ns.tierSets[ns.tierOf[i]].merge(&b.samples)
		}
		// The backend memoizes its derived statistics; only refreshed
		// NPUs re-derive them.
		if st, err := b.stats(&ns.sorted); err == nil {
			out.PerNPU[i] = st
		} else {
			// All of this NPU's requests fell inside the warm-up window:
			// they still count toward the aggregate's request totals.
			out.PerNPU[i].Requests = b.samples.requests
			out.PerNPU[i].Dispatched = b.samples.dispatched
		}
	}
	agg, err := ns.srv.statsOf(&ns.merged, &ns.sorted)
	if err != nil {
		return NodeStats{}, err
	}
	out.BatchStats = agg
	if ns.scale != nil {
		out.Scaling = ns.scalingStats(&ns.merged)
	}
	if ns.tierSets != nil {
		out.Tiers = ns.tierStats()
	}
	ns.last = out
	ns.statsAt = ns.submitted
	ns.statsValid = true
	return out, nil
}

// Drain computes the final statistics and seals the node session (and
// every backend) against further submissions. Stats remains callable
// until Close.
func (ns *NodeSession) Drain() (NodeStats, error) {
	st, err := ns.Stats()
	if err != nil {
		return NodeStats{}, err
	}
	ns.drained = true
	for _, b := range ns.backends {
		b.drain()
	}
	return st, nil
}

// Close seals the node session and every backend, releasing the streams
// they pinned and the node's sample and scratch buffers; subsequent calls
// error, except the counts Pending, Routed and Fleet keep answering.
// Close is idempotent.
func (ns *NodeSession) Close() error {
	ns.closed = true
	ns.drained = true
	ns.merged, ns.tierSets, ns.sorted = sampleSet{}, nil, nil
	for _, b := range ns.backends {
		if err := b.Close(); err != nil {
			return err
		}
	}
	return nil
}
