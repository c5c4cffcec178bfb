// Package scenario is the declarative chaos-engineering layer over the
// streaming serving stack: a scenario names a fleet, a local scheduler,
// an optional autoscale policy, an offered-load ramp, a timed list of
// fault-injection events (NPU failures, slowdowns, cordons) and a list
// of assertions about how the system must behave under them. A scenario
// compiles onto the control plane (internal/ctl) — its ramp and events
// become a command script run at time-scale 0 — so the plane is the one
// executor and its run report the one outcome model, and the assertions
// are evaluated on that report. The same scenario text and seed replay
// byte-for-byte — chaos becomes a reproducible regression artifact (the
// scenarios/ corpus at the repository root) instead of a one-off
// experiment.
package scenario

import (
	"fmt"
	"math"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/dnn"
	"repro/internal/sched"
	"repro/internal/serving"
)

// Fleet is the scenario's NPU fleet shape.
type Fleet struct {
	// Initial is the fleet size the node opens with (>= 1).
	Initial int
	// Min and Max bound the fleet under autoscaling; both are zero (and
	// must be) when no scaler is attached and the fleet stays fixed.
	Min, Max int
	// Tiers is an optional weighted hardware-tier template
	// ("70%:fast,30%:slow", see serving.ParseFleetTemplate); empty
	// keeps the fleet homogeneous on the server's base config.
	Tiers string
}

// Event is one timed fault-injection operation.
type Event struct {
	// At is the stream instant the operation fires at.
	At time.Duration
	// Op is the operation (see serving.NodeOp: fail, slowdown, restore,
	// cordon, uncordon against one backend index).
	Op serving.NodeOp
}

// Scenario is one parsed declarative scenario. Build it with Parse (the
// text format) or construct it directly; Validate before Run either
// way (Run validates again).
type Scenario struct {
	// Name identifies the scenario in reports.
	Name string
	// Fleet is the NPU fleet shape.
	Fleet Fleet
	// Routing is the node's router policy (default round-robin — the
	// cluster package's zero value; scenarios usually pick least-work).
	Routing cluster.RoutingPolicy
	// Scheduler is every backend's local scheduler (preemptive PREMA
	// when the text omits the directive; a zero-value struct must set
	// it explicitly).
	Scheduler sched.Spec
	// Scaler names the autoscale policy; empty keeps the fleet fixed at
	// Fleet.Initial. SLO is the scaler's P95 target (required with a
	// scaler) and Tick its evaluation period (0 = the serving default).
	Scaler string
	SLO    time.Duration
	Tick   time.Duration
	// Models restricts the request mix (defaults to the interactive
	// four-model mix scenarios are written against; see parse.go).
	Models []string
	// Seed drives the arrival sampling deterministically; 0 selects the
	// same fixed default the prema facade uses.
	Seed uint64
	// Warmup is the fraction of the horizon excluded from latency
	// statistics (0 = the serving default of 0.2).
	Warmup float64
	// Segment and Load define the offered-load ramp: segment i of
	// duration Segment offers Load[i] (normalized to one NPU's
	// capacity). The scenario horizon is Segment * len(Load).
	Segment time.Duration
	Load    []float64
	// Events is the fault-injection schedule; order is irrelevant
	// (firing order is by time, then list order at equal times).
	Events []Event
	// Asserts are the pass/fail conditions the report evaluates.
	Asserts []Assertion
}

// Horizon is the offered-load window: Segment * len(Load).
func (sc *Scenario) Horizon() time.Duration {
	return sc.Segment * time.Duration(len(sc.Load))
}

// Span is the full timeline the executor advances through: the load
// horizon extended past the last event and the last asserted window, so
// late failures fire and recovery windows are observed before the run
// quits.
func (sc *Scenario) Span() time.Duration {
	span := sc.Horizon()
	for _, e := range sc.Events {
		if e.At > span {
			span = e.At
		}
	}
	for _, a := range sc.Asserts {
		if a.To > span {
			span = a.To
		}
		if a.By > span {
			span = a.By
		}
	}
	return span
}

// Validate checks the scenario against the registries and the executor's
// invariants, so a malformed scenario fails before any simulation runs.
func (sc *Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: missing name (add a 'scenario <name>' line)")
	}
	if sc.Fleet.Initial < 1 {
		return fmt.Errorf("scenario: fleet needs at least one initial NPU, got %d", sc.Fleet.Initial)
	}
	if sc.Fleet.Tiers != "" {
		if _, err := serving.ParseFleetTemplate(sc.Fleet.Tiers); err != nil {
			return fmt.Errorf("scenario: fleet tiers: %w", err)
		}
	}
	switch sc.Routing {
	case cluster.RoundRobin, cluster.LeastQueued, cluster.LeastWork:
	default:
		return fmt.Errorf("scenario: unknown routing policy %d", int(sc.Routing))
	}
	if err := sc.Scheduler.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if sc.Scaler == "" {
		if sc.Fleet.Min != 0 || sc.Fleet.Max != 0 {
			return fmt.Errorf("scenario: fleet bounds [%d, %d] need a scaler (add a 'scaler' line or drop min/max)",
				sc.Fleet.Min, sc.Fleet.Max)
		}
		if sc.SLO != 0 || sc.Tick != 0 {
			return fmt.Errorf("scenario: slo/tick need a scaler")
		}
	} else {
		if !autoscale.Has(sc.Scaler) {
			return fmt.Errorf("scenario: unknown scaler %q (known: %v)", sc.Scaler, autoscale.Names())
		}
		if sc.SLO <= 0 {
			return fmt.Errorf("scenario: scaler %q needs a positive slo, got %v", sc.Scaler, sc.SLO)
		}
	}
	for _, name := range sc.Models {
		if _, err := dnn.ByName(name); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	if !(sc.Warmup >= 0 && sc.Warmup < 1) { // NaN fails too
		return fmt.Errorf("scenario: warmup fraction %v outside [0, 1)", sc.Warmup)
	}
	if sc.Segment <= 0 {
		return fmt.Errorf("scenario: non-positive load segment %v", sc.Segment)
	}
	if len(sc.Load) == 0 {
		return fmt.Errorf("scenario: empty load ramp")
	}
	any := false
	for i, l := range sc.Load {
		if !(l >= 0) || math.IsInf(l, 1) { // the arrival sampler needs a finite rate
			return fmt.Errorf("scenario: load segment %d is negative or not finite (%v)", i, l)
		}
		any = any || l > 0
	}
	if !any {
		return fmt.Errorf("scenario: load ramp offers nothing (all segments zero)")
	}
	for i, e := range sc.Events {
		if e.At < 0 {
			return fmt.Errorf("scenario: event %d: negative time %v", i, e.At)
		}
		// State-dependent invariants (failing an already-failed NPU,
		// cordoning the last active backend) surface when the operation
		// fires.
		if err := e.Op.Validate(); err != nil {
			return fmt.Errorf("scenario: event %d: %w", i, err)
		}
	}
	for i, a := range sc.Asserts {
		if err := a.validate(sc); err != nil {
			return fmt.Errorf("scenario: assertion %d (%s): %w", i, a, err)
		}
	}
	return nil
}
