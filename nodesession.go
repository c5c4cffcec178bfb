package prema

// nodesession.go is the node-level streaming surface: System.OpenNode
// returns a NodeSession — the Section II-C deployment model (a router in
// front of multiple preemptible NPUs, each with its own local scheduler)
// as a long-lived endpoint rather than the batch SimulateNode. Requests
// stream through the node's routing policy into per-NPU serving
// sessions; statistics are incremental and answer both per NPU and
// aggregated across the node. Closed-loop client populations
// (OfferClients, also available on the single-NPU Session) sweep
// concurrency instead of offered load: each client keeps one request in
// flight and releases the next only when the previous completes.

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/dnn"
	"repro/internal/serving"
	"repro/internal/workload"
)

// NodeSessionConfig parameterizes a node-level serving session.
type NodeSessionConfig struct {
	// NPUs is the accelerator count in the node (>= 1).
	NPUs int
	// Routing selects the router dispatching requests to NPUs; empty
	// defaults to RoundRobin.
	Routing Routing
	// Scheduler is the NPU-local scheduling configuration every backend
	// runs.
	Scheduler Scheduler
	// Models restricts the request mix OfferLoad and OfferClients draw
	// from (labels per System.Models); empty serves the eight-model
	// evaluation suite. Submit is not restricted.
	Models []string
	// Window is the per-NPU dynamic batching window (0 disables
	// batching; closed-loop clients require 0).
	Window time.Duration
	// MaxBatch caps the fused batch size (default 16).
	MaxBatch int
	// Horizon is the reference horizon for the warm-up cut; 0 derives
	// it from the latest submitted arrival per NPU.
	Horizon time.Duration
	// WarmupFraction of the horizon is excluded from latency statistics
	// (default 0.2).
	WarmupFraction float64
	// Seed drives the session's request sampling deterministically; 0
	// selects a fixed default.
	Seed uint64
	// Autoscale attaches an SLO-driven scaling policy: the fleet grows
	// and shrinks between the configured bounds as the stream advances,
	// NPUs is the starting size, and Stats gains a scaling timeline.
	// nil keeps the fleet fixed. Closed-loop clients (OfferClients) pin
	// to their NPU and are rejected on autoscaling nodes.
	Autoscale *AutoscaleConfig
	// Fleet is an optional weighted hardware-tier template
	// ("70%:fast,30%:slow"): the node's backends split across the
	// named tiers, a tier's clock derates by its factor (builtin slow
	// = 2x service time), routing weighs backends in normalized
	// completion time, and scale-ups pick the tier furthest below its
	// weight. Closed-loop clients (OfferClients) run at the speed of
	// the NPU they pin to. Empty keeps the fleet homogeneous.
	Fleet string
	// Trace attaches a telemetry handle (NewTelemetry): per-request
	// lifecycle events through the Tracer half, tick-sampled fleet
	// metrics through the Recorder half (samples land on the autoscale
	// tick, so they require Autoscale). nil disables both; a session
	// without a handle runs byte-identically to one predating the
	// telemetry layer.
	Trace *Telemetry
}

// NodeSessionStats are a node session's steady-state statistics: the
// aggregate over every NPU's measured requests plus each NPU's own
// view. The aggregate throughput window is the slowest NPU's makespan.
type NodeSessionStats struct {
	// SessionStats is the node-wide aggregate over the union of every
	// NPU's measured requests.
	SessionStats
	// PerNPU holds each accelerator's statistics over its routed share —
	// including backends a scale-down retired. An NPU that served
	// nothing reports a zero entry.
	PerNPU []SessionStats
	// Scaling is the autoscaler's timeline view; nil unless the session
	// was opened with an AutoscaleConfig.
	Scaling *ScalingStats
	// Tiers is the per-hardware-tier statistics breakdown, in template
	// order; nil on homogeneous fleets.
	Tiers []TierStats
}

// TierStats is one hardware tier's slice of the node statistics.
type TierStats = serving.TierStats

// ScalingStats is an autoscaled node session's fleet timeline.
type ScalingStats struct {
	// Events is the fleet timeline in stream milliseconds: an anchor at
	// 0 with the initial count, then one entry per applied change.
	Events []ScaleEventMS
	// SLOLatencyMS is the configured P95 target in milliseconds.
	SLOLatencyMS float64
	// SLOViolationFrac is the fraction of measured requests whose
	// realized latency exceeded the SLO.
	SLOViolationFrac float64
	// MeanNPUs is the time-weighted mean active fleet size over the
	// run's makespan.
	MeanNPUs float64
	// PeakNPUs is the largest active fleet size reached.
	PeakNPUs int
}

// ScaleEventMS is one applied fleet change on the stream clock.
type ScaleEventMS struct {
	// AtMS is the evaluation tick the change applied at, in stream
	// milliseconds.
	AtMS float64
	// Delta is the applied change in active backends (0 only on the
	// initial anchor).
	Delta int
	// NPUs is the active fleet size after the change.
	NPUs int
}

// NodeSession is an open node-level serving endpoint over one System.
// NodeSessions are not safe for concurrent use.
type NodeSession struct {
	sys    *System
	inner  *serving.NodeSession
	rng    *rand.Rand
	models []string
	nextID int
}

// OpenNode validates the configuration and opens a node-level serving
// session: one streaming router in front of NPUs independent serving
// backends, each running the configured local scheduler.
func (s *System) OpenNode(cfg NodeSessionConfig) (*NodeSession, error) {
	if cfg.NPUs <= 0 {
		return nil, fmt.Errorf("prema: non-positive NPU count %d", cfg.NPUs)
	}
	if err := cfg.Scheduler.Validate(); err != nil {
		return nil, err
	}
	routing, err := cfg.Routing.toCluster()
	if err != nil {
		return nil, err
	}
	for _, name := range cfg.Models {
		if _, err := dnn.ByName(name); err != nil {
			return nil, err
		}
	}
	var scale *serving.AutoscaleConfig
	if cfg.Autoscale != nil {
		if err := cfg.Autoscale.Validate(); err != nil {
			return nil, err
		}
		scale = cfg.Autoscale.toServing()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5E55
	}
	var tiers []serving.Tier
	if cfg.Fleet != "" {
		if tiers, err = serving.FleetFromTemplate(s.opt.NPU, cfg.Fleet); err != nil {
			return nil, err
		}
	}
	srv := serving.NewServer(s.opt.NPU, s.opt.Sched, s.gen)
	inner, err := srv.OpenNode(serving.NodeConfig{
		NPUs:      cfg.NPUs,
		Fleet:     tiers,
		Routing:   routing,
		Autoscale: scale,
		Trace:     cfg.Trace,
		Session: serving.SessionConfig{
			Policy:         string(cfg.Scheduler.Policy),
			Preemptive:     cfg.Scheduler.Preemptive,
			Selector:       string(cfg.Scheduler.Mechanism),
			Window:         cfg.Window,
			MaxBatch:       cfg.MaxBatch,
			Horizon:        cfg.Horizon,
			WarmupFraction: cfg.WarmupFraction,
		},
	})
	if err != nil {
		return nil, err
	}
	return &NodeSession{
		sys:    s,
		inner:  inner,
		rng:    workload.RNGFor(seed, 0),
		models: cfg.Models,
	}, nil
}

// NPUs reports the node size.
func (ns *NodeSession) NPUs() int { return ns.inner.NPUs() }

// Submit appends one request to the node's stream, routing it the
// moment it arrives. Routing is incremental, so requests must be
// submitted in nondecreasing arrival order.
func (ns *NodeSession) Submit(req Request) error {
	batch := req.Batch
	if batch <= 0 {
		batch = 1
	}
	prio := req.Priority
	if prio == 0 {
		prio = Medium
	}
	if req.Arrival < 0 {
		return fmt.Errorf("prema: negative arrival %v", req.Arrival)
	}
	inst, err := ns.sys.gen.InstanceByName(ns.nextID, req.Model, batch, prio,
		ns.sys.opt.NPU.Cycles(req.Arrival), ns.rng)
	if err != nil {
		return err
	}
	if err := ns.inner.Submit(inst); err != nil {
		return err
	}
	ns.nextID++
	return nil
}

// OfferLoad drives the node's open-loop arrival process: Poisson
// arrivals at the given offered utilization over the horizon, routed
// request-by-request through the node's routing policy. Load is
// normalized to a single NPU's capacity, so a node of N NPUs saturates
// near load N. Requests arrive at batch size 1 (batching is the
// session's job; see NodeSessionConfig.Window). It returns how many
// requests arrived.
func (ns *NodeSession) OfferLoad(load float64, horizon time.Duration) (int, error) {
	n, err := ns.inner.Offer(serving.Spec{
		Horizon:     horizon,
		OfferedLoad: load,
		Models:      ns.models,
		BatchSizes:  []int{1},
	}, ns.rng)
	if err != nil {
		return 0, err
	}
	ns.nextID += n
	return n, nil
}

// OfferRamp drives a piecewise-constant offered-load profile — the
// diurnal/burst scenario autoscaling exists for. Segment i offers
// loads[i] (normalized to a single NPU's capacity) over its own
// segment-length window, chained in arrival order through the node's
// router; a segment whose sampled window is empty is skipped. Requests
// arrive at batch size 1. It returns how many requests arrived across
// the whole ramp.
func (ns *NodeSession) OfferRamp(loads []float64, segment time.Duration) (int, error) {
	n, err := ns.inner.OfferRamp(serving.Spec{
		Horizon:    segment,
		Models:     ns.models,
		BatchSizes: []int{1},
	}, loads, ns.rng)
	if err != nil {
		return 0, err
	}
	ns.nextID += n
	return n, nil
}

// OfferClients drives a closed-loop client population across the node:
// each client pins to an NPU (round-robin affinity) and keeps exactly
// one request in flight, releasing the next one an exponential think
// time (mean think) after the previous completes — sweeping concurrency
// instead of offered load. No request is released at or after the
// horizon. It returns how many requests were realized.
func (ns *NodeSession) OfferClients(clients int, think, horizon time.Duration) (int, error) {
	n, err := ns.inner.OfferClients(serving.ClientSpec{
		Clients: clients,
		Think:   think,
		Horizon: horizon,
		Models:  ns.models,
	}, ns.rng)
	if err != nil {
		return 0, err
	}
	ns.nextID += n
	return n, nil
}

// Pending reports how many requests have been submitted node-wide.
func (ns *NodeSession) Pending() int { return ns.inner.Pending() }

// Routed reports how many requests each NPU holds; like Pending, it keeps
// answering after Close.
func (ns *NodeSession) Routed() []int { return ns.inner.Routed() }

// Stats computes the node's steady-state statistics so far: aggregate
// plus per-NPU views. Stats is incremental: an NPU whose routed stream
// is unchanged answers from its memo, and an unbatched NPU simulates
// each request once, projecting only the work still in flight.
func (ns *NodeSession) Stats() (NodeSessionStats, error) {
	st, err := ns.inner.Stats()
	if err != nil {
		return NodeSessionStats{}, err
	}
	return ns.flattenNodeStats(st), nil
}

// Drain computes final statistics and seals the node session against
// further submissions; Stats remains callable until Close.
func (ns *NodeSession) Drain() (NodeSessionStats, error) {
	st, err := ns.inner.Drain()
	if err != nil {
		return NodeSessionStats{}, err
	}
	return ns.flattenNodeStats(st), nil
}

// Close seals the node session and releases the request streams it
// pinned. Close is idempotent.
func (ns *NodeSession) Close() error { return ns.inner.Close() }

// TraceEvents assembles the node's merged per-request trace: the
// recorded lifecycle events plus one completion event per simulated
// request, cycle-sorted and sequence-stamped. It errors unless the
// session was opened with a Telemetry handle whose Tracer is attached.
func (ns *NodeSession) TraceEvents() ([]TraceEvent, error) {
	return ns.inner.TraceEvents()
}

func (ns *NodeSession) flattenNodeStats(st serving.NodeStats) NodeSessionStats {
	out := NodeSessionStats{
		SessionStats: flattenStats(st.BatchStats),
		PerNPU:       make([]SessionStats, len(st.PerNPU)),
	}
	for i, per := range st.PerNPU {
		out.PerNPU[i] = flattenStats(per)
	}
	if st.Scaling != nil {
		cfg := ns.sys.opt.NPU
		sc := &ScalingStats{
			Events:           make([]ScaleEventMS, len(st.Scaling.Events)),
			SLOLatencyMS:     st.Scaling.SLOLatencyMS,
			SLOViolationFrac: st.Scaling.SLOViolationFrac,
			MeanNPUs:         st.Scaling.MeanNPUs,
			PeakNPUs:         st.Scaling.PeakNPUs,
		}
		for i, e := range st.Scaling.Events {
			sc.Events[i] = ScaleEventMS{AtMS: cfg.Millis(e.Cycle), Delta: e.Delta, NPUs: e.NPUs}
		}
		out.Scaling = sc
	}
	out.Tiers = st.Tiers
	return out
}
