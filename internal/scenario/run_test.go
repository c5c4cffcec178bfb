package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/ctl"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func newServer(t testing.TB) *serving.Server {
	t.Helper()
	cfg := npu.DefaultConfig()
	gen, err := workload.NewGenerator(cfg, 0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	return serving.NewServer(cfg, sched.DefaultConfig(), gen)
}

// failureScenario is the canonical chaos run the replay and recovery
// tests share: a two-NPU fleet under a load step, one failure mid-run,
// closed-loop recovery asserted.
func failureScenario() *Scenario {
	return &Scenario{
		Name:       "replay-probe",
		Fleet:      Fleet{Initial: 2, Min: 2, Max: 6},
		Routing:    cluster.LeastWork,
		Policy:     "PREMA",
		Preemptive: true,
		Scaler:     "queue-depth",
		SLO:        8 * time.Millisecond,
		Models:     append([]string(nil), defaultModels...),
		Seed:       7,
		Segment:    40 * time.Millisecond,
		Load:       []float64{0.5, 2, 2, 2, 0.5},
		Events: []Event{
			{At: 80 * time.Millisecond, Op: serving.NodeOp{Kind: serving.FailNPU, NPU: 0}},
		},
		Asserts: []Assertion{
			{Kind: AssertRecoveredBy, By: 160 * time.Millisecond},
			{Kind: AssertFleetBetween, Lo: 1, Hi: 6, To: 200 * time.Millisecond},
		},
	}
}

// TestRunReplayByteIdentical is the determinism anchor: the same
// scenario on two fresh servers produces structurally equal reports and
// byte-identical renderings.
func TestRunReplayByteIdentical(t *testing.T) {
	first, err := Run(newServer(t), failureScenario())
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(newServer(t), failureScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("replayed reports differ structurally")
	}
	if first.Render() != second.Render() {
		t.Error("replayed renderings differ")
	}
}

// TestSingleFailureRecovery: the canonical scenario passes — the
// failure lands on the timeline, reclaimed work is conserved, and the
// scaler refills the fleet before the asserted deadline.
func TestSingleFailureRecovery(t *testing.T) {
	rep, err := Run(newServer(t), failureScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("scenario failed:\n%s", rep.Render())
	}
	if rep.Requests == 0 {
		t.Error("no requests offered")
	}
	sawFail := false
	for _, e := range rep.Timeline {
		if e.Kind == "fail" {
			sawFail = true
			if e.NPU != 0 || e.Delta != -1 {
				t.Errorf("fail entry = %+v", e)
			}
		}
	}
	if !sawFail {
		t.Error("failure missing from the timeline")
	}
	for _, a := range rep.Asserts {
		if !a.Pass {
			t.Errorf("assert %q failed: %s", a.Expr, a.Detail)
		}
	}
}

// TestBrokenAssertionFailsReportNotRun: an unattainable assertion turns
// the verdict, never the run, into a failure.
func TestBrokenAssertionFailsReportNotRun(t *testing.T) {
	sc := failureScenario()
	sc.Asserts = append(sc.Asserts, Assertion{Kind: AssertSLO, Max: 0.0001})
	rep, err := Run(newServer(t), sc)
	if err != nil {
		t.Fatalf("run errored instead of reporting: %v", err)
	}
	if rep.Passed {
		t.Fatal("report passed despite an unattainable assertion")
	}
	broken := rep.Asserts[len(rep.Asserts)-1]
	if broken.Pass || broken.Detail == "" {
		t.Errorf("broken assert result = %+v, want Pass=false with detail", broken)
	}
	if !strings.Contains(rep.Render(), "FAIL") {
		t.Error("rendering does not surface the failure")
	}
}

// TestNoEventScenarioMatchesPlainRun: with an empty event schedule the
// executor is a transparent wrapper — its stats equal a hand-driven
// autoscaled node session over the identical stream.
func TestNoEventScenarioMatchesPlainRun(t *testing.T) {
	sc := &Scenario{
		Name:       "no-events",
		Fleet:      Fleet{Initial: 2, Min: 1, Max: 6},
		Routing:    cluster.LeastWork,
		Policy:     "PREMA",
		Preemptive: true,
		Scaler:     "queue-depth",
		SLO:        8 * time.Millisecond,
		Models:     append([]string(nil), defaultModels...),
		Segment:    40 * time.Millisecond, // Seed 0 → the facade default
		Load:       []float64{0.4, 1.5, 3.0, 1.5, 0.4},
	}
	rep, err := Run(newServer(t), sc)
	if err != nil {
		t.Fatal(err)
	}

	srv := newServer(t)
	ns, err := srv.OpenNode(serving.NodeConfig{
		NPUs:    2,
		Routing: cluster.LeastWork,
		Session: serving.SessionConfig{
			Policy:     "PREMA",
			Preemptive: true,
			Horizon:    sc.Horizon(),
		},
		Autoscale: &serving.AutoscaleConfig{
			Scaler:  "queue-depth",
			SLO:     8 * time.Millisecond,
			MinNPUs: 1,
			MaxNPUs: 6,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	n, err := ns.OfferRamp(serving.Spec{
		Horizon:    sc.Segment,
		Models:     sc.Models,
		BatchSizes: []int{1},
	}, sc.Load, workload.RNGFor(0x5E55, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.AdvanceTo(sc.Span()); err != nil {
		t.Fatal(err)
	}
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if rep.Requests != n {
		t.Errorf("scenario offered %d requests, plain run %d", rep.Requests, n)
	}
	// Fleet.MeanNPUs integrates over the scenario span by design, so
	// compare the per-request statistics and the peak, then the raw
	// fleet timeline entry by entry — the strongest stream-identity
	// check available.
	if rep.Latency.MeanMS != st.MeanLatencyMS ||
		rep.Latency.P95MS != st.P95LatencyMS ||
		rep.SLO.ViolationFrac != st.Scaling.SLOViolationFrac ||
		rep.Fleet.PeakNPUs != st.Scaling.PeakNPUs {
		t.Errorf("scenario latency %+v, slo %+v, fleet %+v diverge from plain run (mean %v p95 %v viol %v peak %d)",
			rep.Latency, *rep.SLO, rep.Fleet, st.MeanLatencyMS, st.P95LatencyMS,
			st.Scaling.SLOViolationFrac, st.Scaling.PeakNPUs)
	}
	plain := ns.Timeline()
	if len(rep.Timeline) != len(plain) {
		t.Fatalf("scenario timeline has %d entries, plain run %d", len(rep.Timeline), len(plain))
	}
	for i, got := range rep.Timeline {
		want := plain[i]
		if got.Kind != want.Kind || got.NPU != want.NPU || got.Delta != want.Delta ||
			got.Fleet != want.Active || got.AtMS != srv.NPU().Millis(want.Cycle) {
			t.Errorf("timeline[%d] = %+v, plain run %+v", i, got, want)
		}
	}
}

// tieredScenario is a 50/50 two-tier fleet under a moderate ramp with
// a per-tier SLO assertion on each tier.
func tieredScenario() *Scenario {
	return &Scenario{
		Name:       "tiered-probe",
		Fleet:      Fleet{Initial: 4, Min: 2, Max: 8, Tiers: "50%:fast,50%:slow"},
		Routing:    cluster.LeastWork,
		Policy:     "PREMA",
		Preemptive: true,
		Scaler:     "queue-depth",
		SLO:        8 * time.Millisecond,
		Models:     append([]string(nil), defaultModels...),
		Seed:       23,
		Segment:    40 * time.Millisecond,
		Load:       []float64{1, 2, 1},
		Asserts: []Assertion{
			{Kind: AssertTierSLO, Tier: "fast", Max: 1},
			{Kind: AssertTierSLO, Tier: "slow", Max: 1},
		},
	}
}

// TestTracedRunObservesOnly: RunWithTrace must render the identical
// report as Run — telemetry observes the stream, never perturbs it —
// while additionally carrying the trace events, tick samples and tier
// breakdown.
func TestTracedRunObservesOnly(t *testing.T) {
	plain, err := Run(newServer(t), tieredScenario())
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.New()
	traced, err := RunWithTrace(newServer(t), tieredScenario(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Render() != traced.Render() {
		t.Errorf("tracing changed the rendered report:\n--- plain\n%s\n--- traced\n%s",
			plain.Render(), traced.Render())
	}
	if len(plain.Events) != 0 || len(plain.Samples) != 0 {
		t.Errorf("untraced run carries telemetry: %d events, %d samples",
			len(plain.Events), len(plain.Samples))
	}
	if len(traced.Events) == 0 || len(traced.Samples) == 0 {
		t.Fatalf("traced run carries no telemetry: %d events, %d samples",
			len(traced.Events), len(traced.Samples))
	}
	if len(traced.Tiers) != 2 {
		t.Fatalf("tiered run reports %d tier breakdowns, want 2", len(traced.Tiers))
	}
	for _, a := range traced.Asserts {
		if !strings.HasPrefix(a.Expr, "assert tier ") {
			t.Errorf("assert expr %q, want the tier form", a.Expr)
		}
		if !a.Pass {
			t.Errorf("tier assert %q failed: %s", a.Expr, a.Detail)
		}
	}
}

// TestEvalTierSLO pins the tier assertion's three outcomes against a
// fabricated tier breakdown: pass under the bound, fail over it, and a
// vacuous pass when the tier measured nothing.
func TestEvalTierSLO(t *testing.T) {
	tiers := []ctl.TierSummary{
		{Tier: "fast", Measured: 100, SLOViolationFrac: 0.05},
		{Tier: "slow", Measured: 40, SLOViolationFrac: 0.5},
		{Tier: "idle", Measured: 0},
	}
	cases := []struct {
		tier   string
		max    float64
		pass   bool
		detail string
	}{
		{"fast", 0.1, true, "violation fraction 0.0500"},
		{"slow", 0.2, false, "violation fraction 0.5000"},
		{"idle", 0.2, true, "vacuous"},
		{"ghost", 0.2, true, "vacuous"},
	}
	for _, tc := range cases {
		pass, detail := evalTierSLO(Assertion{Kind: AssertTierSLO, Tier: tc.tier, Max: tc.max}, tiers)
		if pass != tc.pass || !strings.Contains(detail, tc.detail) {
			t.Errorf("tier %s bound %g: pass=%v detail=%q, want pass=%v detail containing %q",
				tc.tier, tc.max, pass, detail, tc.pass, tc.detail)
		}
	}
}

// TestWipeOutSurfaces: failing the only backend of a fixed fleet is a
// run error (the guard refuses to wipe the node out), not a report.
func TestWipeOutSurfaces(t *testing.T) {
	sc := &Scenario{
		Name:       "wipe-out",
		Fleet:      Fleet{Initial: 1},
		Routing:    cluster.LeastWork,
		Policy:     "PREMA",
		Preemptive: true,
		Models:     append([]string(nil), defaultModels...),
		Segment:    20 * time.Millisecond,
		Load:       []float64{0.5, 0.5},
		Events: []Event{
			{At: 10 * time.Millisecond, Op: serving.NodeOp{Kind: serving.FailNPU, NPU: 0}},
		},
	}
	rep, err := Run(newServer(t), sc)
	if err == nil {
		t.Fatalf("wipe-out ran to a report: %+v", rep)
	}
	if !strings.Contains(err.Error(), "last active") {
		t.Errorf("error = %q, want the last-active guard", err)
	}
}

// TestEmptyRampSurfaces: a ramp whose sampled windows hold no arrival
// is a run error, not an empty report.
func TestEmptyRampSurfaces(t *testing.T) {
	sc, err := Parse("scenario quiet\nfleet initial=1\nsegment 10ms\nload 1e-9 0\n")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(newServer(t), sc)
	if err == nil {
		t.Fatalf("empty ramp ran to a report: %+v", rep)
	}
	if !strings.Contains(err.Error(), "ramp produced no requests") {
		t.Errorf("error = %q, want the empty-ramp error", err)
	}
}

// TestCorpusGreen parses and runs every scenario in the repository
// corpus; all of them must pass, keeping scenarios/ an executable
// regression suite.
func TestCorpusGreen(t *testing.T) {
	const dir = "../../scenarios"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if ext := filepath.Ext(e.Name()); ext != ".txt" && ext != ".scn" {
			continue
		}
		ran++
		t.Run(e.Name(), func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(newServer(t), sc)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed {
				t.Errorf("corpus scenario failed:\n%s", rep.Render())
			}
		})
	}
	if ran < 5 {
		t.Errorf("corpus has %d scenarios, want at least 5", ran)
	}
}

// BenchmarkScenarioReplay times one full scenario execution — parse
// excluded, session open through report build — the end-to-end cost a
// corpus run pays per file.
func BenchmarkScenarioReplay(b *testing.B) {
	srv := newServer(b)
	sc := failureScenario()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(srv, sc)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed {
			b.Fatal("scenario failed mid-benchmark")
		}
	}
}
