package serving

// telemetry_test.go locks in the observability contracts: a traced run
// exports a byte-identical JSONL trace and metric series on replay,
// tracing changes nothing about the simulated stream, the per-tier
// statistics breakdown is consistent with the fleet totals, and
// tier-aware scale-down keeps a drawdown proportioned to the template.

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/npu"
	"repro/internal/telemetry"
)

// tracedChaosRun drives one tiered, autoscaled, fault-injected ramp
// with a telemetry handle attached and returns the JSONL export plus
// the drained statistics. Every lifecycle edge kind occurs: the
// slowdown produces stretch events, the failure reclaim/re-route pairs.
func tracedChaosRun(t *testing.T) ([]byte, NodeStats) {
	t.Helper()
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "50%:fast,50%:slow")
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.New()
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 2, Fleet: tiers, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true, Horizon: rampHorizon},
		Autoscale: &AutoscaleConfig{Scaler: "queue-depth", SLO: 8 * time.Millisecond,
			MinNPUs: 2, MaxNPUs: 6},
		Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSchedule(t, ns, 40*time.Millisecond, NodeOp{Kind: SlowNPU, NPU: 0, Factor: 2})
	mustSchedule(t, ns, 80*time.Millisecond, NodeOp{Kind: FailNPU, NPU: 1})
	offerRamp(t, ns, 17)
	if err := ns.AdvanceTo(rampHorizon); err != nil {
		t.Fatal(err)
	}
	events, err := ns.TraceEvents()
	if err != nil {
		t.Fatal(err)
	}
	out, err := telemetry.EncodeJSONL(events, tr.Recorder.Samples())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

// TestTracedReplayByteIdentical is the tentpole acceptance anchor: the
// same seed and fault schedule export the same JSONL bytes, twice.
func TestTracedReplayByteIdentical(t *testing.T) {
	j1, st1 := tracedChaosRun(t)
	j2, st2 := tracedChaosRun(t)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("traced replays diverge:\n--- first\n%s\n--- second\n%s", j1, j2)
	}
	if st1.BatchStats != st2.BatchStats {
		t.Errorf("traced replays disagree on stats:\n %+v\n %+v", st1.BatchStats, st2.BatchStats)
	}
	// The export must carry every lifecycle edge the chaos schedule
	// provokes, plus tick lines from the recorder.
	text := string(j1)
	for _, kind := range []string{
		telemetry.KindSubmit, telemetry.KindRoute, telemetry.KindStretch,
		telemetry.KindReclaim, telemetry.KindComplete, "tick",
	} {
		if !strings.Contains(text, `"kind":"`+kind+`"`) {
			t.Errorf("JSONL export missing %q lines", kind)
		}
	}
	if !strings.Contains(text, `"tier":"slow"`) {
		t.Error("tiered trace carries no tier labels")
	}
}

// TestTracingObservesOnly: attaching telemetry must not perturb the
// simulated stream — the traced run's statistics equal the untraced
// run's, per backend.
func TestTracingObservesOnly(t *testing.T) {
	run := func(tr *telemetry.Trace) NodeStats {
		s := newServer(t)
		ns, err := s.OpenNode(NodeConfig{
			NPUs: 3, Routing: cluster.LeastWork,
			Session: SessionConfig{Policy: "PREMA", Preemptive: true, Horizon: rampHorizon},
			Autoscale: &AutoscaleConfig{Scaler: "queue-depth", SLO: 8 * time.Millisecond,
				MinNPUs: 1, MaxNPUs: 6},
			Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		offerRamp(t, ns, 13)
		st, err := ns.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain := run(nil)
	traced := run(telemetry.New())
	if plain.BatchStats != traced.BatchStats {
		t.Errorf("tracing perturbed the stream:\n plain  %+v\n traced %+v",
			plain.BatchStats, traced.BatchStats)
	}
	if len(plain.PerNPU) != len(traced.PerNPU) {
		t.Fatalf("tracing changed the fleet: %d vs %d backends", len(plain.PerNPU), len(traced.PerNPU))
	}
	for i := range plain.PerNPU {
		if plain.PerNPU[i] != traced.PerNPU[i] {
			t.Errorf("NPU %d diverges under tracing:\n %+v\n %+v", i, plain.PerNPU[i], traced.PerNPU[i])
		}
	}
}

// TestNodeStatsTierBreakdown: tiered fleets report per-tier statistics
// consistent with the fleet totals; homogeneous fleets report none, so
// their stats shape is unchanged.
func TestNodeStatsTierBreakdown(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "70%:fast,30%:slow")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 4, Fleet: tiers, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "FCFS", Horizon: rampHorizon},
	})
	if err != nil {
		t.Fatal(err)
	}
	offerRamp(t, ns, 19)
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tiers) != 2 || st.Tiers[0].Tier != "fast" || st.Tiers[1].Tier != "slow" {
		t.Fatalf("tier breakdown %+v, want fast/slow in template order", st.Tiers)
	}
	reqs, npus := 0, 0
	for _, ts := range st.Tiers {
		reqs += ts.Requests
		npus += ts.NPUs
		if ts.Measured > ts.Requests {
			t.Errorf("tier %s measured %d > routed %d", ts.Tier, ts.Measured, ts.Requests)
		}
		if ts.Measured > 0 && ts.P95LatencyMS < ts.P50LatencyMS {
			t.Errorf("tier %s P95 %.3f < P50 %.3f", ts.Tier, ts.P95LatencyMS, ts.P50LatencyMS)
		}
	}
	if npus != 4 || reqs == 0 {
		t.Errorf("tier totals %d NPUs / %d requests, want 4 NPUs and routed work", npus, reqs)
	}

	plain, err := s.OpenNode(NodeConfig{NPUs: 2, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "FCFS", Horizon: rampHorizon}})
	if err != nil {
		t.Fatal(err)
	}
	offerRamp(t, plain, 19)
	pst, err := plain.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if pst.Tiers != nil {
		t.Errorf("homogeneous fleet reports tier stats: %+v", pst.Tiers)
	}
}

// TestTraceEventsOneCopy pins the merged trace's assembly: on a
// refreshed node TraceEvents allocates one slice of exactly the trace's
// length, and its order and stamps equal the two-step derivation it
// replaced — completions sorted by (cycle, request, backend), then
// telemetry.MergeEvents over the tracer's events.
func TestTraceEventsOneCopy(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "50%:fast,50%:slow")
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.New()
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 3, Fleet: tiers, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true, Horizon: rampHorizon},
		Trace:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustSchedule(t, ns, 40*time.Millisecond, NodeOp{Kind: SlowNPU, NPU: 0, Factor: 2})
	mustSchedule(t, ns, 80*time.Millisecond, NodeOp{Kind: FailNPU, NPU: 1})
	offerRamp(t, ns, 23)
	if _, err := ns.Stats(); err != nil {
		t.Fatal(err)
	}
	var got []telemetry.Event
	allocs := testing.AllocsPerRun(5, func() {
		if got, err = ns.TraceEvents(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 || cap(got) != len(got) {
		t.Errorf("TraceEvents: %v allocations, len %d cap %d; want one exact-size slice",
			allocs, len(got), cap(got))
	}

	var completions []telemetry.Event
	for i, b := range ns.backends {
		for _, c := range b.completions {
			completions = append(completions, telemetry.Event{
				Cycle: c.cycle, Kind: telemetry.KindComplete, Req: c.req, NPU: i,
				Tier: ns.tierName(i), LatencyMS: c.latencyMS, ServiceMS: c.serviceMS,
			})
		}
	}
	sort.Slice(completions, func(i, j int) bool {
		a, b := completions[i], completions[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Req != b.Req {
			return a.Req < b.Req
		}
		return a.NPU < b.NPU
	})
	want := telemetry.MergeEvents(tr.Tracer.Events(), completions)
	for i := range want {
		want[i].AtMS = s.cfg.Millis(want[i].Cycle)
	}
	if len(completions) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("TraceEvents (%d events, %d completions) diverges from the two-step merge",
			len(got), len(completions))
	}
}

// TestTraceEventsErrors pins the refusal paths: no tracer attached, and
// a closed session.
func TestTraceEventsErrors(t *testing.T) {
	s := newServer(t)
	plain, err := s.OpenNode(NodeConfig{NPUs: 2, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "FCFS", Horizon: rampHorizon}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.TraceEvents(); err == nil ||
		!strings.Contains(err.Error(), "no tracer attached") {
		t.Errorf("untraced TraceEvents error = %v, want 'no tracer attached'", err)
	}

	traced, err := s.OpenNode(NodeConfig{NPUs: 2, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "FCFS", Horizon: rampHorizon},
		Trace:   telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := traced.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := traced.TraceEvents(); err == nil ||
		!strings.Contains(err.Error(), "closed") {
		t.Errorf("closed TraceEvents error = %v, want 'closed'", err)
	}
}

// TestTieredScaleDownFollowsWeights is the retire-rule regression: a
// 70/30 fleet grown to 10 and halved must shed backends from whichever
// tier is over its share (inverse D'Hondt), landing on 4 fast / 1 slow
// active — not on whichever tier happened to run emptiest.
func TestTieredScaleDownFollowsWeights(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "70%:fast,30%:slow")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.OpenNode(NodeConfig{NPUs: 2, Routing: cluster.LeastWork, Fleet: tiers,
		Session: SessionConfig{Policy: "FCFS", Horizon: rampHorizon}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.ScaleTo(10); err != nil {
		t.Fatal(err)
	}
	if err := ns.ScaleTo(5); err != nil {
		t.Fatal(err)
	}
	active := map[string]int{}
	for _, v := range ns.Fleet() {
		if v.State == "active" {
			active[v.Tier]++
		}
	}
	if active["fast"] != 4 || active["slow"] != 1 {
		t.Errorf("halved fleet = %v active, want 4 fast / 1 slow (inverse D'Hondt)", active)
	}
}
