package scenario

// executor_test.go holds the executor — a scenario compiled onto the
// control plane — to the reference it replaced: the executor that drove
// a node session directly (every event scheduled up front, the ramp
// offered with OfferRamp, the clock advanced to the span, the session
// drained) and derived the report from the node's cycle timeline and
// statistics, evaluating the assertions in cycles. The reference stays
// here verbatim in behaviour; TestExecutorMatchesReference and
// FuzzScenarioParse compare the two byte for byte.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ctl"
	"repro/internal/serving"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// refRun bundles what reference report building needs from a finished
// run.
type refRun struct {
	sc     *Scenario
	srv    *serving.Server
	events []serving.NodeEvent
	stats  serving.NodeStats
	n      int // requests offered
}

func (r *refRun) cycles(d time.Duration) int64 { return r.srv.NPU().Cycles(d) }
func (r *refRun) millis(c int64) float64       { return r.srv.NPU().Millis(c) }

// refRunWithTrace is the reference executor.
func refRunWithTrace(srv *serving.Server, sc *Scenario, tr *telemetry.Trace) (rep *Report, rerr error) {
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
	ns, err := srv.OpenNode(serving.NodeConfig{
		NPUs:    sc.Fleet.Initial,
		Fleet:   tiers,
		Routing: sc.Routing,
		Trace:   tr,
		Session: serving.SessionConfig{
			Policy:         sc.Scheduler.Policy,
			Preemptive:     sc.Scheduler.Preemptive,
			Selector:       sc.Scheduler.Selector,
			Horizon:        sc.Horizon(),
			WarmupFraction: sc.Warmup,
		},
		Autoscale: scale,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := ns.Close(); cerr != nil && rerr == nil {
			rep, rerr = nil, fmt.Errorf("scenario: closing node session: %w", cerr)
		}
	}()

	for i, e := range sc.Events {
		if err := ns.ScheduleCycle(srv.NPU().Cycles(e.At), e.Op); err != nil {
			return nil, fmt.Errorf("scenario: event %d: %w", i, err)
		}
	}
	seed := sc.Seed
	if seed == 0 {
		seed = 0x5E55
	}
	n, err := ns.OfferRamp(serving.Spec{
		Horizon:    sc.Segment,
		Models:     sc.Models,
		BatchSizes: []int{1},
	}, sc.Load, workload.RNGFor(seed, 0))
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	if err := ns.AdvanceToCycle(srv.NPU().Cycles(sc.Span())); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	st, err := ns.Drain()
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}

	rep = refReport(&refRun{sc: sc, srv: srv, events: ns.Timeline(), stats: st, n: n})
	if tr != nil && tr.Tracer != nil {
		events, err := ns.TraceEvents()
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		rep.Events = events
	}
	if tr != nil && tr.Recorder != nil {
		rep.Samples = tr.Recorder.Samples()
		rep.Series = refSeries(rep.Samples)
	}
	return rep, nil
}

// refReport derives the report from a finished reference run, field by
// field as the scenario report and its conversion to the shared schema
// did.
func refReport(run *refRun) *Report {
	sc, st := run.sc, run.stats
	r := &Report{
		Name:     sc.Name,
		Source:   "scenario",
		Requests: run.n,
		SpanMS:   float64(sc.Span().Microseconds()) / 1000,
		Fleet: ctl.FleetSummary{
			Start:    sc.Fleet.Initial,
			MeanNPUs: refMeanFleet(run.events, run.cycles(sc.Span())),
		},
		Latency: ctl.LatencySummary{
			MeanMS: st.MeanLatencyMS,
			P50MS:  st.P50LatencyMS,
			P95MS:  st.P95LatencyMS,
			P99MS:  st.P99LatencyMS,
		},
		Timeline: make([]ctl.ReportEvent, len(run.events)),
	}
	for i, e := range run.events {
		r.Timeline[i] = ctl.ReportEvent{
			AtMS: run.millis(e.Cycle), Kind: e.Kind, NPU: e.NPU,
			Delta: e.Delta, Fleet: e.Active, Note: e.Note,
		}
		r.Fleet.PeakNPUs = max(r.Fleet.PeakNPUs, e.Active)
	}
	if st.Scaling != nil && st.Scaling.SLOLatencyMS > 0 {
		r.SLO = &ctl.SLOSummary{
			TargetMS:      st.Scaling.SLOLatencyMS,
			ViolationFrac: st.Scaling.SLOViolationFrac,
		}
	}
	r.Passed = true
	for _, a := range sc.Asserts {
		res := refEvaluate(a, run)
		r.Asserts = append(r.Asserts, res)
		r.Passed = r.Passed && res.Pass
	}
	for _, t := range st.Tiers {
		r.Tiers = append(r.Tiers, ctl.TierSummary{
			Tier: t.Tier, NPUs: t.NPUs,
			Requests: t.Requests, Measured: t.Measured,
			MeanLatencyMS: t.MeanLatencyMS,
			P50MS:         t.P50LatencyMS, P95MS: t.P95LatencyMS,
			SLOViolationFrac: t.SLOViolationFrac,
		})
	}
	return r
}

// refMeanFleet integrates the routable-fleet step function over
// [0, span].
func refMeanFleet(events []serving.NodeEvent, span int64) float64 {
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

// refSeries converts tick samples into the report's series section.
func refSeries(samples []telemetry.TickSample) *ctl.Series {
	if len(samples) == 0 {
		return nil
	}
	s := &ctl.Series{Points: make([]ctl.SeriesPoint, len(samples))}
	width := 0
	for i, t := range samples {
		s.Points[i] = ctl.SeriesPoint{
			AtMS: t.AtMS, Fleet: t.Fleet,
			EstP95MS: t.EstP95MS, Completions: t.Completions,
		}
		width = max(width, len(t.NPUs))
	}
	s.Utilization = make([]ctl.NPUSeries, width)
	for i := range s.Utilization {
		ns := ctl.NPUSeries{NPU: i, Util: make([]float64, len(samples))}
		for k, t := range samples {
			if i < len(t.NPUs) {
				ns.Util[k] = t.NPUs[i].UtilFrac
				ns.Tier = t.NPUs[i].Tier
			} else {
				ns.Util[k] = -1
			}
		}
		s.Utilization[i] = ns
	}
	return s
}

// refEvaluate evaluates one assertion against the run's cycle timeline
// and statistics.
func refEvaluate(a Assertion, run *refRun) ctl.AssertOutcome {
	res := ctl.AssertOutcome{Expr: a.String()}
	switch a.Kind {
	case AssertSLO:
		got := run.stats.Scaling.SLOViolationFrac
		res.Pass = got < a.Max
		res.Detail = fmt.Sprintf("violation fraction %.4f (bound %g)", got, a.Max)
	case AssertFleetBetween:
		res.Pass, res.Detail = refFleetBetween(a, run)
	case AssertRecoveredBy:
		res.Pass, res.Detail = refRecoveredBy(a, run)
	case AssertTierSLO:
		res.Pass, res.Detail = refTierSLO(a, run)
	}
	return res
}

func refFleetAt(events []serving.NodeEvent, c int64) int {
	v := 0
	for _, e := range events {
		if e.Cycle > c {
			break
		}
		v = e.Active
	}
	return v
}

func refFleetBetween(a Assertion, run *refRun) (bool, string) {
	fromC, toC := run.cycles(a.From), run.cycles(a.To)
	check := func(v int, at int64) (bool, string) {
		if v < a.Lo || v > a.Hi {
			return false, fmt.Sprintf("fleet %d at %.2fms outside [%d, %d]",
				v, run.millis(at), a.Lo, a.Hi)
		}
		return true, ""
	}
	if ok, detail := check(refFleetAt(run.events, fromC), fromC); !ok {
		return false, detail
	}
	for _, e := range run.events {
		if e.Cycle <= fromC || e.Cycle > toC {
			continue
		}
		if ok, detail := check(e.Active, e.Cycle); !ok {
			return false, detail
		}
	}
	return true, fmt.Sprintf("fleet stayed in [%d, %d] over [%s, %s]", a.Lo, a.Hi, a.From, a.To)
}

func refTierSLO(a Assertion, run *refRun) (bool, string) {
	for _, t := range run.stats.Tiers {
		if t.Tier != a.Tier {
			continue
		}
		if t.Measured == 0 {
			return true, fmt.Sprintf("tier %s measured no requests (vacuous)", a.Tier)
		}
		got := t.SLOViolationFrac
		return got < a.Max, fmt.Sprintf("tier %s violation fraction %.4f over %d measured (bound %g)",
			a.Tier, got, t.Measured, a.Max)
	}
	return true, fmt.Sprintf("tier %s measured no requests (vacuous)", a.Tier)
}

func refRecoveredBy(a Assertion, run *refRun) (bool, string) {
	baseline, disruptAt, disrupted := 0, int64(0), false
	for _, e := range run.events {
		if e.Kind == "fail" || e.Kind == "cordon" {
			baseline, disruptAt, disrupted = e.Active-e.Delta, e.Cycle, true
			break
		}
	}
	if !disrupted {
		return true, "no disruption injected (vacuous)"
	}
	byC, peak := run.cycles(a.By), 0
	for _, e := range run.events {
		if e.Cycle > disruptAt && e.Cycle <= byC && e.Active > peak {
			peak = e.Active
		}
	}
	if peak >= baseline {
		return true, fmt.Sprintf("fleet reached %d (pre-disruption %d) by %s", peak, baseline, a.By)
	}
	return false, fmt.Sprintf("fleet peaked at %d after the disruption, below pre-disruption %d by %s",
		peak, baseline, a.By)
}

// edgeElastic covers idle mid-ramp segments, events at 0 ms and at
// equal times, a failure after the horizon and a target-latency scaler
// with its own tick and warm-up. Both edge cases fit the fuzz target's
// caps, so they seed it too.
const edgeElastic = `
scenario edge-elastic
fleet initial=2 min=2 max=4
routing least-queued
policy PREMA preemptive
scaler target-latency slo=6ms tick=2ms
warmup 0.1
seed 11
segment 12ms
load 2 0 0 4 4 1
at 0ms slowdown npu1 x2
at 0ms cordon npu0
at 18ms uncordon npu0
at 18ms restore npu1
at 80ms fail npu1
assert fleet between 1 4 during 0ms 90ms
assert recovered_by 90ms
assert slo_violation_frac < 0.9
`

// edgeFixed is a fixed FCFS round-robin fleet that opens idle, with an
// idle trough, a failure it never recovers from and a slowdown window.
const edgeFixed = `
scenario edge-fixed
fleet initial=3
routing round-robin
policy FCFS
seed 5
segment 15ms
load 0 1 1 0 2
at 15ms fail npu2
at 15ms slowdown npu0 x1.5
at 55ms restore npu0
assert fleet between 2 3 during 0ms 75ms
assert recovered_by 70ms
`

// heteroChaos is the benchmark's hetero-chaos scenario text at one
// input seed: a tiered elastic fleet through a ramp with a failure, a
// slowdown, a cordon and their undoing.
func heteroChaos(seed uint64) string {
	return fmt.Sprintf(`scenario hetero-chaos
fleet initial=6 min=6 max=12 tiers=70%%:fast,30%%:slow
routing least-work
policy PREMA preemptive
scaler queue-depth slo=8ms
models CNN-AN CNN-GN CNN-MN RNN-SA
seed %d
segment 30ms
load 1 2.5 4 5 5 4 2.5 1
at 50ms fail npu1
at 80ms slowdown npu2 x3
at 100ms cordon npu4
at 150ms uncordon npu4
at 170ms restore npu2
assert fleet between 4 12 during 0ms 240ms
assert slo_violation_frac < 1
`, seed)
}

// corpus reads every scenario in the repository corpus, by file name.
func corpus(t testing.TB) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, pattern := range []string{"*.txt", "*.scn"} {
		paths, err := filepath.Glob(filepath.Join("../../scenarios", pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(path)] = string(src)
		}
	}
	return out
}

// artefacts renders everything a scenario run exports: the transcript,
// the report's JSON and HTML, and the JSONL trace.
func artefacts(t testing.TB, rep *Report) [4][]byte {
	t.Helper()
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	page, err := rep.HTML()
	if err != nil {
		t.Fatal(err)
	}
	jsonl, err := telemetry.EncodeJSONL(rep.Events, rep.Samples)
	if err != nil {
		t.Fatal(err)
	}
	return [4][]byte{[]byte(rep.Render()), js, page, jsonl}
}

// TestExecutorMatchesReference: every corpus scenario, the edge cases
// and hetero-chaos at several seeds export byte-equal transcripts,
// JSON, HTML and traces on both executors, traced and untraced.
func TestExecutorMatchesReference(t *testing.T) {
	cases := corpus(t)
	if len(cases) < 5 {
		t.Fatalf("corpus has %d scenarios, want at least 5", len(cases))
	}
	cases["edge-elastic"] = edgeElastic
	cases["edge-fixed"] = edgeFixed
	for _, seed := range []uint64{1000, 2000, 3000, 7000} {
		cases[fmt.Sprintf("hetero-chaos-%d", seed)] = heteroChaos(seed)
	}
	names := []string{"transcript", "JSON", "HTML", "JSONL"}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			sc, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				var tr, refTr *telemetry.Trace
				if traced {
					tr, refTr = telemetry.New(), telemetry.New()
				}
				got, err := RunWithTrace(newServer(t), sc, tr)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refRunWithTrace(newServer(t), sc, refTr)
				if err != nil {
					t.Fatal(err)
				}
				g, w := artefacts(t, got), artefacts(t, want)
				for i := range g {
					if !bytes.Equal(g[i], w[i]) {
						t.Errorf("traced=%v: %s differs from the reference executor's:\n--- executor\n%s\n--- reference\n%s",
							traced, names[i], g[i], w[i])
					}
				}
				if traced && len(got.Events) == 0 {
					t.Errorf("traced run carries no trace events")
				}
			}
		})
	}
}

// FuzzScenarioParse: any text parses or errors, never panics; and an
// accepted scenario small enough to run quickly (span at most 100 ms,
// every load at most 4, a fleet of at most 4, ticks of at least 1 ms)
// has the same outcome on both executors — both error, or both export
// identical transcripts and report JSON.
func FuzzScenarioParse(f *testing.F) {
	for _, src := range corpus(f) {
		f.Add(src)
	}
	for _, tc := range nonFinite {
		f.Add(tc.src)
	}
	f.Add(edgeElastic)
	f.Add(edgeFixed)
	f.Add("scenario faint\nfleet initial=1\nsegment 10ms\nload 1e-300 1\n") // the first gap overflows int64
	f.Add("scenario tiny\nfleet initial=2 min=1 max=3\nscaler queue-depth slo=6ms\nsegment 20ms\nload 1 3 0 2\nat 15ms fail npu0\nat 40ms cordon npu1\nassert recovered_by 60ms\n")
	f.Add("scenario tiered\nfleet initial=2 min=2 max=4 tiers=50%:fast,50%:slow\npolicy PREMA preemptive mechanism=dynamic\n" +
		"scaler queue-depth slo=6ms tick=1ms\nsegment 15ms\nload 2 4 1\nat 10ms slowdown npu1 x3\nat 30ms fail npu0\n" +
		"assert tier fast slo_violation_frac < 0.9\nassert fleet between 1 4 during 0ms 45ms\n")
	f.Add("scenario fcfs\nfleet initial=3\nrouting least-queued\npolicy FCFS\nmodels CNN-AN RNN-SA\nseed 3\nsegment 20ms\n" +
		"load 3 0 2\nat 20ms cordon npu1\nat 20ms cordon npu2\nat 40ms uncordon npu1\nassert recovered_by 60ms\n")
	f.Add("scenario late\nfleet initial=2\nsegment 10ms\nload 1 2\nat 35ms fail npu1\nassert fleet between 1 2 during 0ms 50ms\n")
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := Parse(src)
		if err != nil {
			return
		}
		if sc.Span() > 100*time.Millisecond || sc.Fleet.Initial > 4 || sc.Fleet.Max > 4 ||
			(sc.Tick != 0 && sc.Tick < time.Millisecond) {
			return
		}
		for _, l := range sc.Load {
			if l > 4 {
				return
			}
		}
		got, err := RunWithTrace(newServer(t), sc, telemetry.New())
		want, refErr := refRunWithTrace(newServer(t), sc, telemetry.New())
		if (err == nil) != (refErr == nil) {
			t.Fatalf("executor error %v, reference error %v\n%s", err, refErr, src)
		}
		if err != nil {
			return
		}
		g, w := artefacts(t, got), artefacts(t, want)
		if !bytes.Equal(g[0], w[0]) || !bytes.Equal(g[1], w[1]) {
			t.Fatalf("executors disagree on\n%s\n--- executor\n%s%s\n--- reference\n%s%s", src, g[0], g[1], w[0], w[1])
		}
	})
}
