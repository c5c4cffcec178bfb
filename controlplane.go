package prema

// controlplane.go is the live-operations surface of the facade:
// System.OpenControlPlane returns a ControlPlane — internal/ctl's
// interactive fleet driver — owning an autoscaled node fleet whose
// deterministic stream clock can be paced against wall time, paused,
// single-stepped, and driven by operator commands (cordon, drain, fail,
// scale, load, snapshot, report). Commands serialize into the clock
// loop between ticks, so the same command script at the same virtual
// timestamps replays byte-identically. The plane is also the executor
// behind System.RunScenario: a declarative scenario compiles to a
// command script, so a scripted session and the equivalent scenario
// are one run, and both export the one RunReport schema (JSON and
// self-contained HTML).

import (
	"time"

	"repro/internal/ctl"
	"repro/internal/dnn"
	"repro/internal/serving"
)

type (
	// ControlPlane is a live control plane over one node-session fleet:
	// Exec runs operator commands, RunScript drives a timestamped
	// command script, Pace advances against wall time, Snapshot and
	// Report observe the run, Handler mirrors it all over HTTP. All
	// methods are safe for concurrent use.
	ControlPlane = ctl.Plane
	// ControlSnapshot is the plane's point-in-time metrics view: fleet
	// composition, tick-window latency percentiles, SLO-violation
	// fraction and the scaling-timeline tail.
	ControlSnapshot = ctl.Snapshot
	// ControlCommand is one executed command on a run's log.
	ControlCommand = ctl.CommandRecord
	// RunReport is the exportable run outcome of control plane
	// sessions and scenario runs alike (ScenarioReport is the same
	// type): fleet timeline, latency/SLO summary, command log or
	// assertion verdicts, JSON and self-contained HTML renderings.
	RunReport = ctl.RunReport
)

// ControlPlaneConfig parameterizes a live control plane.
type ControlPlaneConfig struct {
	// NPUs is the initial fleet size (>= 1); with Autoscale set it must
	// lie inside the configured bounds.
	NPUs int
	// Routing selects the router policy; empty defaults to RoundRobin.
	Routing Routing
	// Scheduler is the NPU-local scheduling configuration.
	Scheduler Scheduler
	// Models restricts the generated request mix (labels per
	// System.Models); empty serves the eight-model evaluation suite.
	Models []string
	// Horizon is the reference horizon for the warm-up cut; 0 derives
	// it from the latest arrival.
	Horizon time.Duration
	// WarmupFraction of the horizon is excluded from latency statistics
	// (default 0.2).
	WarmupFraction float64
	// Autoscale attaches an SLO-driven scaling policy; nil keeps the
	// fleet fixed (the `scale` command still works, unbounded).
	Autoscale *AutoscaleConfig
	// Seed drives arrival sampling deterministically; 0 selects the
	// fixed default shared with scenarios.
	Seed uint64
	// Segment is the arrival-generation window (default 20ms); `load`
	// changes take effect at segment boundaries, like a scenario ramp.
	Segment time.Duration
	// Step is the clock-advance granularity of paced and `step` mode
	// (default 1ms).
	Step time.Duration
	// TimeScale is virtual seconds per wall second under Pace; 0
	// disables wall pacing entirely (manual stepping / scripted CI mode).
	TimeScale float64
	// Load is the initial offered load per NPU-capacity; 0 starts idle.
	Load float64
	// Name labels the run's report (default "control-plane").
	Name string
	// Fleet is an optional weighted hardware-tier template
	// ("70%:fast,30%:slow", see NodeSessionConfig.Fleet); empty keeps
	// the fleet homogeneous.
	Fleet string
	// Trace attaches a telemetry handle (NewTelemetry) to the plane's
	// node: the `trace`/`metrics` commands and the /trace and /metrics
	// HTTP endpoints read from it. nil disables telemetry.
	Trace *Telemetry
}

// OpenControlPlane validates the configuration and opens a live control
// plane over a fresh node fleet.
func (s *System) OpenControlPlane(cfg ControlPlaneConfig) (*ControlPlane, error) {
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
	var tiers []serving.Tier
	if cfg.Fleet != "" {
		if tiers, err = serving.FleetFromTemplate(s.opt.NPU, cfg.Fleet); err != nil {
			return nil, err
		}
	}
	srv := serving.NewServer(s.opt.NPU, s.opt.Sched, s.gen)
	return ctl.New(srv, ctl.Config{
		Node: serving.NodeConfig{
			NPUs:      cfg.NPUs,
			Fleet:     tiers,
			Routing:   routing,
			Autoscale: scale,
			Trace:     cfg.Trace,
			Session: serving.SessionConfig{
				Policy:         string(cfg.Scheduler.Policy),
				Preemptive:     cfg.Scheduler.Preemptive,
				Selector:       string(cfg.Scheduler.mechanism()),
				Horizon:        cfg.Horizon,
				WarmupFraction: cfg.WarmupFraction,
			},
		},
		Models:    cfg.Models,
		Seed:      cfg.Seed,
		Segment:   cfg.Segment,
		Step:      cfg.Step,
		TimeScale: cfg.TimeScale,
		Load:      cfg.Load,
		Name:      cfg.Name,
	})
}
