package serving

// autoscale.go wires the autoscale package into the streaming node
// session: NodeConfig.Autoscale attaches a scaling policy that is
// evaluated on a periodic tick as the request stream advances. Every
// tick the scaler sees the router's fluid load (in-flight counts,
// backlog, the P95 of the tick window's fluid latency estimates) and
// answers with a fleet delta; scale-up spins a fresh per-NPU Session
// backend into the shared router's State, scale-down marks the
// least-loaded backend draining so no new work routes to it while its
// already-routed requests complete and its samples keep folding into
// the aggregate. Because ticks fire deterministically from arrival
// cycles and all routing still flows through the one shared Router,
// an autoscaled stream replays exactly — and a node with the static
// no-op scaler attached is provably identical to a scaler-less node
// (autoscale_test.go locks both in).

import (
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/stats"
)

// AutoscaleConfig attaches an SLO-driven scaling policy to a node
// session.
type AutoscaleConfig struct {
	// Scaler is the scaling-policy label (autoscale.ByName): "static",
	// "target-latency", "queue-depth", or a registered custom scaler.
	Scaler string
	// SLO is the P95 latency target the fleet is scaled against; it also
	// defines the SLO-violation fraction the scaling statistics report.
	SLO time.Duration
	// MinNPUs and MaxNPUs bound the fleet (defaults 1 and max(8, initial
	// NPUs)); the initial NodeConfig.NPUs must lie inside the bounds.
	// MaxNPUs caps the hardware concurrently serving: a draining backend
	// still completing routed work counts against it until it empties.
	MinNPUs, MaxNPUs int
	// Tick is the evaluation period (default 2ms). Ticks fire lazily as
	// arrivals advance the stream clock, so an idle node costs nothing.
	Tick time.Duration
}

// normalize applies the defaults and validates the configuration
// against the initial fleet size.
func (a AutoscaleConfig) normalize(npus int) (AutoscaleConfig, error) {
	if a.Scaler == "" {
		return a, fmt.Errorf("serving: no scaler selected (known: %v)", autoscale.Names())
	}
	if !autoscale.Has(a.Scaler) {
		return a, fmt.Errorf("serving: unknown scaler %q (known: %v)", a.Scaler, autoscale.Names())
	}
	if a.SLO <= 0 {
		return a, fmt.Errorf("serving: autoscaling requires a positive latency SLO, got %v", a.SLO)
	}
	if a.MinNPUs == 0 {
		a.MinNPUs = 1
	}
	if a.MaxNPUs == 0 {
		a.MaxNPUs = npus
		if a.MaxNPUs < 8 {
			a.MaxNPUs = 8
		}
	}
	if a.MinNPUs < 1 {
		return a, fmt.Errorf("serving: non-positive fleet minimum %d", a.MinNPUs)
	}
	if a.MaxNPUs < a.MinNPUs {
		return a, fmt.Errorf("serving: fleet maximum %d below minimum %d", a.MaxNPUs, a.MinNPUs)
	}
	if npus < a.MinNPUs || npus > a.MaxNPUs {
		return a, fmt.Errorf("serving: initial fleet of %d NPUs outside [%d, %d]",
			npus, a.MinNPUs, a.MaxNPUs)
	}
	if a.Tick < 0 {
		return a, fmt.Errorf("serving: negative autoscale tick %v", a.Tick)
	}
	if a.Tick == 0 {
		a.Tick = 2 * time.Millisecond
	}
	return a, nil
}

// ScaleEvent is one applied fleet change: a scaler action, or an
// injected failure or cordon/uncordon that altered the routable count
// (see NodeSession.Timeline for the annotated event view).
type ScaleEvent struct {
	// Cycle is the stream instant the change was applied at.
	Cycle int64
	// Delta is the applied change in active backends (0 only on the
	// initial timeline anchor).
	Delta int
	// NPUs is the active backend count after the change — the scaling
	// timeline is the step function through these points.
	NPUs int
}

// ScalingStats is the autoscaled node's timeline view, answered by
// Stats alongside the latency statistics whenever a scaler is attached.
type ScalingStats struct {
	// Events is the fleet timeline: an anchor at cycle 0 with the
	// initial count, then one entry per applied change.
	Events []ScaleEvent
	// SLOLatencyMS is the configured P95 target in milliseconds.
	SLOLatencyMS float64
	// SLOViolationFrac is the fraction of measured requests whose
	// realized latency exceeded the SLO.
	SLOViolationFrac float64
	// MeanNPUs is the time-weighted mean active backend count over the
	// run's makespan.
	MeanNPUs float64
	// PeakNPUs is the largest active backend count the fleet reached.
	PeakNPUs int
}

// scaling is the node session's autoscaler state.
type scaling struct {
	policy     autoscale.Policy
	cfg        AutoscaleConfig
	tickCycles int64
	sloMS      float64
	nextTick   int64
	// winStart marks the node's estimate count at the previous tick:
	// the tick window is the estRing entries pushed since. Reading the
	// ring the submit path already fills (instead of collecting a
	// second per-request slice) keeps the autoscale tick overhead off
	// the routing hot path; scratch is the reused percentile buffer.
	winStart int
	scratch  []float64
	// lastEstP95 carries the latency signal across ticks that saw no
	// arrivals, decaying geometrically so a quiet stretch reads as
	// pressure easing rather than flapping between the last P95 and 0.
	lastEstP95 float64
}

// newScaling validates the configuration and builds the session's
// scaler state.
func (s *Server) newScaling(a AutoscaleConfig, npus int) (*scaling, error) {
	norm, err := a.normalize(npus)
	if err != nil {
		return nil, err
	}
	sloMS := float64(norm.SLO) / float64(time.Millisecond)
	policy, err := autoscale.ByName(norm.Scaler, autoscale.Config{SLOLatencyMS: sloMS})
	if err != nil {
		return nil, err
	}
	tick := s.cfg.Cycles(norm.Tick)
	if tick <= 0 {
		return nil, fmt.Errorf("serving: autoscale tick %v is under one cycle", norm.Tick)
	}
	return &scaling{
		policy:     policy,
		cfg:        norm,
		tickCycles: tick,
		sloMS:      sloMS,
		nextTick:   tick,
	}, nil
}

// evaluate runs one scaler decision at tick cycle at and applies the
// clamped delta to the fleet.
func (ns *NodeSession) evaluate(at int64) error {
	sc := ns.scale
	var inFlight, occupied int
	var backlog int64
	for i := range ns.backends {
		if ns.state.Failed(i) {
			// A failed backend is gone: its slot frees immediately, so
			// the scaler can spin a replacement.
			continue
		}
		if ns.state.Cordoned(i) {
			// A cordoned backend holds its NPU for its eventual return
			// to rotation, whether or not work is still draining.
			occupied++
			continue
		}
		if ns.state.Draining(i) {
			// A retired backend occupies its NPU only while its routed
			// work is still completing; an emptied one is gone for both
			// the metrics snapshot and the MaxNPUs serving cap below.
			if ns.state.Backlog(i, at) > 0 {
				occupied++
			}
			continue
		}
		inFlight += ns.state.InFlight(i, at)
		backlog += ns.state.Backlog(i, at)
	}
	// The tick window is everything pushed into the estimate ring since
	// the previous tick (capped at the ring size — a tick seeing more
	// keeps the most recent estWindow estimates). Copying into the
	// reused scratch buffer and sorting that in place costs the routing
	// hot path nothing per request.
	window := 0
	if n := ns.estCount - sc.winStart; n > 0 {
		if n > estWindow {
			n = estWindow
		}
		if sc.scratch == nil {
			sc.scratch = make([]float64, 0, estWindow)
		}
		sc.scratch = sc.scratch[:0]
		start := ns.estCount - n
		for k := 0; k < n; k++ {
			sc.scratch = append(sc.scratch, ns.estRing[(start+k)%estWindow])
		}
		window = n
		sc.lastEstP95 = stats.PercentileInPlace(sc.scratch, 95)
	} else {
		sc.lastEstP95 *= 0.7
	}
	sc.winStart = ns.estCount
	est := sc.lastEstP95
	if rec := ns.recorder(); rec != nil {
		// Estimate-SLO violations this tick; the scratch window is already
		// sorted, but a linear count keeps the logic order-free.
		estViolations := 0
		for _, e := range sc.scratch[:window] {
			if e > sc.sloMS {
				estViolations++
			}
		}
		ns.sampleTick(rec, at, est, window, estViolations)
	}
	delta := int(sc.policy.Decide(autoscale.Metrics{
		Now:             at,
		Active:          ns.state.Active(),
		Draining:        occupied,
		Min:             sc.cfg.MinNPUs,
		Max:             sc.cfg.MaxNPUs,
		InFlight:        inFlight,
		BacklogMS:       ns.srv.cfg.Millis(backlog),
		EstP95LatencyMS: est,
		SLOLatencyMS:    sc.sloMS,
		TierActive:      ns.tierCounts(),
	}))

	// MaxNPUs caps the hardware concurrently serving, not just the
	// active set: a draining backend still holding fluid work (or a
	// cordoned one awaiting its return) occupies its NPU, so it counts
	// against the bound and scale-up resumes only as slots free up.
	serving := ns.state.Active() + occupied
	applied := 0
	for ; delta > 0 && ns.state.Active() < sc.cfg.MaxNPUs && serving < sc.cfg.MaxNPUs; delta-- {
		if err := ns.addBackend(ns.pickTier()); err != nil {
			return err
		}
		serving++
		applied++
	}
	for ; delta < 0 && ns.state.Active() > sc.cfg.MinNPUs; delta++ {
		victim := ns.drainVictim(at)
		if victim < 0 {
			break
		}
		if err := ns.state.Retire(victim); err != nil {
			return err
		}
		applied--
	}
	if applied != 0 {
		ns.record(at, "scale", -1, applied, "")
	}
	return nil
}

// drainVictim picks the backend a scale-down retires: the routable one
// with the least fluid backlog at the tick (its drain completes
// soonest); ties prefer the highest index, so the newest backend goes
// first. On a heterogeneous fleet the victim comes from the tier
// furthest above its template weight (autoscale.PickRetireTier — the
// inverse of the scale-up rule), so a long drawdown keeps the live mix
// proportioned instead of skewing toward whichever tier happens to run
// emptiest.
func (ns *NodeSession) drainVictim(at int64) int {
	if ns.tiers != nil {
		if t := autoscale.PickRetireTier(ns.tierWeights, ns.tierCounts()); t >= 0 {
			if v := ns.drainVictimIn(at, t); v >= 0 {
				return v
			}
		}
	}
	return ns.drainVictimIn(at, -1)
}

// drainVictimIn is drainVictim restricted to one tier (-1 scans the
// whole fleet).
func (ns *NodeSession) drainVictimIn(at int64, tier int) int {
	best, bestBacklog := -1, int64(1<<62)
	for i := range ns.backends {
		if !ns.state.Routable(i) {
			continue
		}
		if tier >= 0 && ns.tierOf[i] != tier {
			continue
		}
		if b := ns.state.Backlog(i, at); b < bestBacklog || (b == bestBacklog && i > best) {
			best, bestBacklog = i, b
		}
	}
	return best
}

// scalingStats derives the timeline view from the fleet timeline and
// the merged measured samples. Every fleet-size change appears — the
// scaler's own actions and any injected failures or cordons — so the
// step function (and its time-weighted mean) reflects what actually
// served.
func (ns *NodeSession) scalingStats(merged *sampleSet) *ScalingStats {
	sc := ns.scale
	events := make([]ScaleEvent, 0, len(ns.timeline))
	for i, e := range ns.timeline {
		if i == 0 || e.Delta != 0 {
			events = append(events, ScaleEvent{Cycle: e.Cycle, Delta: e.Delta, NPUs: e.Active})
		}
	}
	out := &ScalingStats{
		Events:       events,
		SLOLatencyMS: sc.sloMS,
	}
	violated := 0
	for _, l := range merged.latencies {
		if l > sc.sloMS {
			violated++
		}
	}
	if n := len(merged.latencies); n > 0 {
		out.SLOViolationFrac = float64(violated) / float64(n)
	}
	for _, e := range out.Events {
		if e.NPUs > out.PeakNPUs {
			out.PeakNPUs = e.NPUs
		}
	}
	out.MeanNPUs = float64(ns.timeline[0].Active)
	if merged.makespan > 0 {
		out.MeanNPUs = MeanFleet(ns.timeline, merged.makespan)
	}
	return out
}

// MeanFleet is the time-weighted mean routable fleet size of a node
// timeline over [0, span]: the integral of its Active step function
// divided by span. Events after span are ignored, and a span <= 0
// answers 0. Zero-delta events (a slowdown, a restore) split a step
// without changing its height, so the filtered ScaleEvent view and the
// full timeline integrate to the same bits.
func MeanFleet(events []NodeEvent, span int64) float64 {
	if len(events) == 0 || span <= 0 {
		return 0
	}
	var area float64
	prev := events[0]
	for _, e := range events[1:] {
		if e.Cycle > span {
			break
		}
		area += float64(prev.Active) * float64(e.Cycle-prev.Cycle)
		prev = e
	}
	area += float64(prev.Active) * float64(span-prev.Cycle)
	return area / float64(span)
}
