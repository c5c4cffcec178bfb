package prema

// scenario.go is the chaos-engineering surface of the facade: declarative
// scenarios (internal/scenario's text format) parsed with ParseScenario
// and executed with System.RunScenario. A scenario declares a fleet, a
// local scheduler, an optional autoscale policy, an offered-load ramp, a
// timed fault-injection schedule (NPU failures, slowdowns, cordons) and
// assertions over the outcome. It runs as a scripted control plane
// session (see controlplane.go): the ramp and the schedule compile to
// timestamped commands, the plane drives the fleet through the whole
// timeline deterministically, and the assertions are evaluated on its
// RunReport. The same scenario text and seed replay byte-identically.
// The scenarios/ corpus at the repository root holds the curated
// examples premasim -scenario runs.

import (
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/serving"
)

type (
	// Scenario is one declarative chaos scenario: fleet, scheduler,
	// load ramp, fault-injection events and assertions. Build it with
	// ParseScenario or construct it directly (then Validate).
	Scenario = scenario.Scenario
	// ScenarioFleet is the scenario's NPU fleet shape (initial size
	// plus autoscale bounds).
	ScenarioFleet = scenario.Fleet
	// ScenarioEvent is one timed fault-injection operation.
	ScenarioEvent = scenario.Event
	// ScenarioAssertion is one pass/fail condition of a scenario.
	ScenarioAssertion = scenario.Assertion
	// ScenarioReport is an executed scenario's outcome, the RunReport
	// of the control plane run the scenario compiled to: verdict
	// (Passed), annotated fleet timeline, assertion results and served
	// summary, with the deterministic ASCII transcript (Render) and the
	// JSON and HTML exports.
	ScenarioReport = scenario.Report
	// ChaosOp is one fault-injection operation against a node backend
	// (fail, slowdown, restore, cordon, uncordon).
	ChaosOp = serving.NodeOp
	// ChaosOpKind identifies a chaos operation.
	ChaosOpKind = serving.OpKind
	// NodeRouting is the routing-policy enum scenarios carry (the
	// string-typed Routing identifiers map onto it; see ParseRouting).
	NodeRouting = cluster.RoutingPolicy
)

// Chaos operation kinds.
const (
	// ChaosFail removes the backend involuntarily; its in-flight work
	// re-routes through the node's router at the failure time.
	ChaosFail = serving.FailNPU
	// ChaosSlow degrades the backend: work routed to it while slowed
	// takes Factor times its nominal service time.
	ChaosSlow = serving.SlowNPU
	// ChaosRestore returns a slowed backend to nominal speed.
	ChaosRestore = serving.RestoreNPU
	// ChaosCordon takes the backend out of rotation reversibly, with no
	// scale-down credit.
	ChaosCordon = serving.CordonNPU
	// ChaosUncordon returns a cordoned backend to rotation.
	ChaosUncordon = serving.UncordonNPU
)

// Scenario assertion kinds.
const (
	// AssertSLO bounds the SLO-violation fraction.
	AssertSLO = scenario.AssertSLO
	// AssertFleetBetween bounds the fleet size over a window.
	AssertFleetBetween = scenario.AssertFleetBetween
	// AssertRecoveredBy requires the fleet back at its pre-disruption
	// size by a deadline.
	AssertRecoveredBy = scenario.AssertRecoveredBy
	// AssertTierSLO bounds one hardware tier's SLO-violation fraction.
	AssertTierSLO = scenario.AssertTierSLO
)

// Scenario routing values (NodeRouting); the typed Routing identifiers
// RoundRobin/LeastQueued/LeastWork are the string-facing equivalents.
const (
	NodeRoundRobin  = cluster.RoundRobin
	NodeLeastQueued = cluster.LeastQueued
	NodeLeastWork   = cluster.LeastWork
)

// ParseScenario reads a declarative scenario from its text form (see
// the scenarios/ corpus and internal/scenario's grammar reference) and
// validates it.
func ParseScenario(src string) (*Scenario, error) {
	return scenario.Parse(src)
}

// RunScenario executes one scenario against the system's hardware and
// workload configuration and reports the outcome. A failed assertion
// fails the report (Report.Passed), not the run; RunScenario errors
// only on invalid scenarios or runs the session itself rejects (for
// example failing the last active NPU).
func (s *System) RunScenario(sc *Scenario) (*ScenarioReport, error) {
	srv := serving.NewServer(s.opt.NPU, s.opt.Sched, s.gen)
	return scenario.Run(srv, sc)
}

// RunScenarioTraced executes one scenario with a telemetry handle
// (NewTelemetry) attached to the node session: the report additionally
// carries the merged per-request trace (Report.Events, when tr.Tracer
// is set) and the tick-metric series (Report.Samples, when tr.Recorder
// is set and the scenario has a scaler). The simulated stream is
// identical to RunScenario's — telemetry only observes it.
func (s *System) RunScenarioTraced(sc *Scenario, tr *Telemetry) (*ScenarioReport, error) {
	srv := serving.NewServer(s.opt.NPU, s.opt.Sched, s.gen)
	return scenario.RunWithTrace(srv, sc, tr)
}
