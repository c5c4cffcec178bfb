package scenario

// run.go is the scenario executor. A scenario compiles onto the control
// plane (internal/ctl) at time-scale 0: its fleet, scheduler and first
// segment's load become the plane's configuration, and its load ramp and
// fault injections become a command script — `load` at each segment
// boundary where the offered load changes, one command per event at its
// instant, `load 0` at the horizon when the timeline runs past it, and
// `quit` at the span. The plane runs the script on the deterministic
// stream clock, and the assertions are evaluated on its sealed report.
// Everything downstream of the seed is deterministic, so the same
// scenario text replays byte-identically (Render, JSON, HTML and the
// trace) — the property that lets the scenarios/ corpus run as a
// regression suite.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/ctl"
	"repro/internal/npu"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// Report is an executed scenario's outcome: the control plane's run
// report with Source "scenario", the verdict (Passed), the evaluated
// assertions and, from RunWithTrace, the trace (Events) and tick
// samples (Samples). Render is the scenario transcript.
type Report = ctl.RunReport

// Run executes one scenario against the server's hardware and workload
// configuration. A failed assertion fails the report (Report.Passed),
// not the run; Run errors only on invalid scenarios or a run the
// session itself rejects (a wiped-out fleet, a misdirected operation).
func Run(srv *serving.Server, sc *Scenario) (*Report, error) {
	return RunWithTrace(srv, sc, nil)
}

// RunWithTrace executes one scenario with a telemetry handle attached
// to the node session: the report additionally carries the merged
// per-request trace (Report.Events, when tr.Tracer is set) and the
// tick-metric series (Report.Samples, when tr.Recorder is set and the
// scenario has a scaler — samples land on the autoscale tick). A nil tr
// is exactly Run: the simulated stream is identical either way, only
// observed.
func RunWithTrace(srv *serving.Server, sc *Scenario, tr *telemetry.Trace) (rep *Report, rerr error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	var scale *serving.AutoscaleConfig
	if sc.Scaler != "" {
		scale = &serving.AutoscaleConfig{
			Scaler:  sc.Scaler,
			SLO:     sc.SLO,
			Tick:    sc.Tick,
			MinNPUs: sc.Fleet.Min,
			MaxNPUs: sc.Fleet.Max,
		}
	}
	var tiers []serving.Tier
	if sc.Fleet.Tiers != "" {
		var err error
		if tiers, err = serving.FleetFromTemplate(srv.NPU(), sc.Fleet.Tiers); err != nil {
			return nil, err
		}
	}
	p, err := ctl.New(srv, ctl.Config{
		Node: serving.NodeConfig{
			NPUs:    sc.Fleet.Initial,
			Fleet:   tiers,
			Routing: sc.Routing,
			Trace:   tr,
			Session: serving.SessionConfig{
				Policy:         sc.Policy,
				Preemptive:     sc.Preemptive,
				Selector:       sc.Selector,
				Horizon:        sc.Horizon(),
				WarmupFraction: sc.Warmup,
			},
			Autoscale: scale,
		},
		Models:  sc.Models,
		Seed:    sc.Seed, // 0 selects the facade's fixed default, as a plain node session run does
		Segment: sc.Segment,
		Load:    sc.Load[0],
		Name:    sc.Name,
	})
	if err != nil {
		return nil, err
	}
	// Close's error joins the report's: a teardown failure after a clean
	// run still means the run's state was not what the caller believes
	// (the exact error-swallowing class premalint's errdrop rule exists
	// to catch).
	defer func() {
		if cerr := p.Close(); cerr != nil && rerr == nil {
			rep, rerr = nil, fmt.Errorf("scenario: closing node session: %w", cerr)
		}
	}()

	if _, err := p.RunScript(sc.script(srv.NPU())); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	rep = p.Report()
	switch {
	case rep.Requests == 0:
		return nil, fmt.Errorf("scenario %q: ramp produced no requests", sc.Name)
	case rep.StatsNote != "":
		return nil, fmt.Errorf("scenario %q: %s", sc.Name, rep.StatsNote)
	}
	rep.Source, rep.Commands = "scenario", nil
	rep.SpanMS = float64(sc.Span().Microseconds()) / 1000
	rep.Asserts, rep.Passed = sc.evaluate(rep, srv.NPU())
	// Harvest the trace before the deferred Close seals the session —
	// trace assembly refreshes backends, which a closed session refuses.
	if tr != nil && tr.Tracer != nil {
		if rep.Events, err = p.TraceEvents(); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	return rep, nil
}

// script compiles the scenario into its control plane command script
// (see the file comment). Commands run in the order of the cycle they
// fall on (cfg's clock), list order breaking ties, which is the order
// the node session fires scheduled operations in. The text loses
// nothing: a Duration prints, and %g prints a float, in a form that
// parses back to the same value.
func (sc *Scenario) script(cfg npu.Config) string {
	type command struct {
		at   time.Duration
		line string
	}
	span := sc.Span()
	var cmds []command
	for i, prev := 1, sc.Load[0]; i <= len(sc.Load); i++ {
		load := 0.0 // past the horizon the ramp offers nothing
		if i < len(sc.Load) {
			load = sc.Load[i]
		}
		if at := time.Duration(i) * sc.Segment; load != prev && at < span {
			cmds = append(cmds, command{at, fmt.Sprintf("load %g", load)})
		}
		prev = load
	}
	for _, e := range sc.Events {
		line := fmt.Sprintf("%s npu%d", e.Op.Kind, e.Op.NPU)
		if e.Op.Kind == serving.SlowNPU {
			line = fmt.Sprintf("slow npu%d x%g", e.Op.NPU, e.Op.Factor)
		}
		cmds = append(cmds, command{e.At, line})
	}
	slices.SortStableFunc(cmds, func(a, b command) int {
		return cmp.Compare(cfg.Cycles(a.at), cfg.Cycles(b.at))
	})
	cmds = append(cmds, command{span, "quit"})
	var b strings.Builder
	for _, c := range cmds {
		fmt.Fprintf(&b, "@%s %s\n", c.at, c.line)
	}
	return b.String()
}
