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
	"repro/internal/workload"
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
	if err := ns.AdvanceToCycle(ns.srv.cfg.Cycles(rampHorizon)); err != nil {
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
	want := telemetry.MergeEvents(tr.Tracer.AppendEvents(nil), completions)
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

// TestClientRequestsTraced: on a traced node, closed-loop client
// requests take their own trace IDs after the open-loop stream's, so
// every request of the node submits once and completes exactly once.
// Routed and pinned requests alike have one route event, on the NPU
// they complete on, and one stretch event exactly when that NPU is
// slowed (the slow tier's).
func TestClientRequestsTraced(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "50%:fast,50%:slow")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 2, Fleet: tiers, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true},
		Trace:   telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	open, err := ns.Offer(Spec{Horizon: 20 * time.Millisecond, OfferedLoad: 1,
		Models: rampModels, BatchSizes: []int{1}}, workload.RNGFor(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	clients, err := ns.OfferClients(ClientSpec{Clients: 4, Think: 2 * time.Millisecond,
		Horizon: 40 * time.Millisecond, Models: rampModels}, workload.RNGFor(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	events, err := ns.TraceEvents()
	if err != nil {
		t.Fatal(err)
	}
	submits, routes, stretches, completes := map[int]int{}, map[int]int{}, map[int]int{}, map[int]int{}
	routedTo, completedOn, slow := map[int]int{}, map[int]int{}, map[int]bool{}
	for _, e := range events {
		switch e.Kind {
		case telemetry.KindSubmit:
			submits[e.Req]++
		case telemetry.KindRoute:
			routes[e.Req]++
			routedTo[e.Req] = e.NPU
		case telemetry.KindStretch:
			stretches[e.Req]++
		case telemetry.KindComplete:
			completes[e.Req]++
			completedOn[e.Req] = e.NPU
			slow[e.Req] = e.Tier == "slow"
		}
	}
	total := open + clients
	if open == 0 || clients == 0 || len(submits) != total || len(completes) != total {
		t.Errorf("%d open-loop and %d client requests: %d IDs submit, %d complete; want every one",
			open, clients, len(submits), len(completes))
	}
	for id := 0; id < total; id++ {
		if submits[id] != 1 || routes[id] != 1 || completes[id] != 1 {
			t.Errorf("request %d: %d submit, %d route and %d complete events, want one of each",
				id, submits[id], routes[id], completes[id])
			continue
		}
		if routedTo[id] != completedOn[id] {
			t.Errorf("request %d routed to NPU %d but completed on NPU %d", id, routedTo[id], completedOn[id])
		}
		want := 0
		if slow[id] {
			want = 1
		}
		if stretches[id] != want {
			t.Errorf("request %d: %d stretch events on NPU %d (slow tier: %v), want %d",
				id, stretches[id], completedOn[id], slow[id], want)
		}
	}
}

// TestTraceIDsBelongToTheNode: a node numbers its own submissions, so
// the same request records submitted to a second traced node leave the
// first node's trace whole — one submit and exactly one complete event
// per trace ID.
func TestTraceIDsBelongToTheNode(t *testing.T) {
	s := newServer(t)
	stream, err := s.Generate(Spec{Horizon: 100 * time.Millisecond, OfferedLoad: 0.5,
		Models: []string{"CNN-AN"}}, workload.RNGFor(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) < 3 {
		t.Fatalf("stream holds %d requests, want at least 3", len(stream))
	}
	reqs := stream[:3]
	open := func() *NodeSession {
		ns, err := s.OpenNode(NodeConfig{NPUs: 1, Session: SessionConfig{Policy: "FCFS"},
			Trace: telemetry.New()})
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	a, b := open(), open()
	for _, r := range reqs {
		if err := a.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range reqs[1:] {
		if err := b.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	events, err := a.TraceEvents()
	if err != nil {
		t.Fatal(err)
	}
	submits, completes := map[int]int{}, map[int]int{}
	for _, ev := range events {
		switch ev.Kind {
		case telemetry.KindSubmit:
			submits[ev.Req]++
		case telemetry.KindComplete:
			completes[ev.Req]++
		}
	}
	if len(submits) != len(reqs) || len(completes) != len(reqs) {
		t.Fatalf("node A traced %d submitted and %d completed IDs, want %d of each: submits %v, completes %v",
			len(submits), len(completes), len(reqs), submits, completes)
	}
	for id, n := range submits {
		if n != 1 || completes[id] != 1 {
			t.Errorf("trace ID %d: %d submit and %d complete events, want one of each", id, n, completes[id])
		}
	}
}
