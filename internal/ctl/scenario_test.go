package ctl_test

// scenario_test.go holds the control plane against the declarative
// scenario engine: a hand-written script lands on the statistics of the
// equivalent scenario, which compiles onto the plane itself, and both
// sources export one report schema. It is an external test package
// because internal/scenario imports ctl.

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ctl"
	"repro/internal/scenario"
	"repro/internal/serving"
)

// equivScenario and equivScript drive the same virtual timeline: a
// four-segment load ramp with a cordon/uncordon window, on identical
// fleets, scalers and seeds. The scripted session must land on
// statistics identical to the scenario run's.
const equivScenario = `
scenario equivalence
fleet initial=2 min=2 max=4
routing least-work
policy PREMA preemptive
scaler queue-depth slo=8ms
seed 7
segment 25ms
load 2 3 3 1
at 30ms cordon npu1
at 60ms uncordon npu1
`

const equivScript = `
@25ms load 3
@30ms cordon npu1
@60ms uncordon npu1
@75ms load 1
@100ms quit
`

func TestScriptMatchesScenario(t *testing.T) {
	sc, err := scenario.Parse(equivScenario)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want, err := scenario.Run(ctl.NewServer(t), sc)
	if err != nil {
		t.Fatalf("scenario.Run: %v", err)
	}

	p, err := ctl.New(ctl.NewServer(t), ctl.Config{
		Node: serving.NodeConfig{
			NPUs:    2,
			Routing: cluster.LeastWork,
			Session: serving.SessionConfig{
				Policy: "PREMA", Preemptive: true,
				Horizon: sc.Horizon(),
			},
			Autoscale: &serving.AutoscaleConfig{
				Scaler: "queue-depth", SLO: 8 * time.Millisecond,
				MinNPUs: 2, MaxNPUs: 4,
			},
		},
		Models:  sc.Models,
		Seed:    7,
		Segment: 25 * time.Millisecond,
		Load:    2,
		Name:    "equivalence",
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	if _, err := p.RunScript(equivScript); err != nil {
		t.Fatalf("RunScript: %v", err)
	}
	got := p.Report()

	if got.Requests != want.Requests {
		t.Errorf("requests: script %d, scenario %d", got.Requests, want.Requests)
	}
	if got.SpanMS != want.SpanMS {
		t.Errorf("span: script %.4fms, scenario %.4fms", got.SpanMS, want.SpanMS)
	}
	if got.Fleet != want.Fleet {
		t.Errorf("fleet summary: script %+v, scenario %+v", got.Fleet, want.Fleet)
	}
	if got.Latency != want.Latency {
		t.Errorf("latency: script %+v, scenario %+v", got.Latency, want.Latency)
	}
	switch {
	case (got.SLO == nil) != (want.SLO == nil):
		t.Errorf("slo presence: script %v, scenario %v", got.SLO, want.SLO)
	case got.SLO != nil && *got.SLO != *want.SLO:
		t.Errorf("slo: script %+v, scenario %+v", *got.SLO, *want.SLO)
	}
	if len(got.Timeline) != len(want.Timeline) {
		t.Fatalf("timeline length: script %d, scenario %d\nscript:  %+v\nscenario: %+v",
			len(got.Timeline), len(want.Timeline), got.Timeline, want.Timeline)
	}
	for i := range got.Timeline {
		if got.Timeline[i] != want.Timeline[i] {
			t.Errorf("timeline[%d]: script %+v, scenario %+v", i, got.Timeline[i], want.Timeline[i])
		}
	}
	// The run must actually have exercised the cordon window and traffic.
	if got.Requests == 0 {
		t.Fatalf("equivalence run offered no traffic")
	}
	sawCordon := false
	for _, e := range got.Timeline {
		sawCordon = sawCordon || e.Kind == "cordon"
	}
	if !sawCordon {
		t.Errorf("timeline never recorded the cordon: %+v", got.Timeline)
	}
}

// runEquivScenario executes the equivalence scenario on a fresh server.
func runEquivScenario(t *testing.T) *scenario.Report {
	t.Helper()
	sc, err := scenario.Parse(equivScenario)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rep, err := scenario.Run(ctl.NewServer(t), sc)
	if err != nil {
		t.Fatalf("scenario.Run: %v", err)
	}
	return rep
}

func TestReportSchemaShared(t *testing.T) {
	// A scenario run and a scripted session must marshal the same
	// top-level JSON keys (modulo the optional per-source sections).
	fromScenario := runEquivScenario(t)

	p := ctl.NewPlane(t)
	if _, err := p.RunScript("@40ms snapshot\n@60ms quit\n"); err != nil {
		t.Fatalf("RunScript: %v", err)
	}
	fromPlane := p.Report()

	keys := func(r *ctl.RunReport) map[string]bool {
		js, err := r.JSON()
		if err != nil {
			t.Fatalf("JSON: %v", err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(js, &m); err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		out := map[string]bool{}
		for k := range m {
			out[k] = true
		}
		return out
	}
	ks, kp := keys(fromScenario), keys(fromPlane)
	// The verdict is a scenario section: present even when false, and
	// never on a premactl session, which asserts nothing.
	if !ks["passed"] {
		t.Errorf("scenario report lost its verdict")
	}
	if kp["passed"] {
		t.Errorf("premactl report grew a verdict")
	}
	// Source-specific optional sections.
	for _, k := range []string{"passed", "asserts", "commands", "slo", "stats_note"} {
		delete(ks, k)
		delete(kp, k)
	}
	for k := range ks {
		if !kp[k] {
			t.Errorf("scenario report key %q missing from premactl report", k)
		}
	}
	for k := range kp {
		if !ks[k] {
			t.Errorf("premactl report key %q missing from scenario report", k)
		}
	}
	if fromScenario.Source != "scenario" || fromPlane.Source != "premactl" {
		t.Errorf("sources: %q / %q", fromScenario.Source, fromPlane.Source)
	}
	if len(fromScenario.Commands) != 0 {
		t.Errorf("scenario report carries a command log: %v", fromScenario.Commands)
	}
	if len(fromPlane.Commands) == 0 {
		t.Errorf("premactl report lost its command log")
	}
}
