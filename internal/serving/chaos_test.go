package serving

// chaos_test.go locks in the fault-injection contracts of the node
// session: failures reclaim exactly the in-flight work and conserve
// requests, slowdowns stretch routed work consistently across the fluid
// and realized views, cordons take backends out of rotation reversibly,
// the whole event machinery replays deterministically per seed, and a
// scaler recovers the fleet after an injected loss.

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func mustSchedule(t *testing.T, ns *NodeSession, at time.Duration, op NodeOp) {
	t.Helper()
	if err := ns.ScheduleCycle(ns.srv.cfg.Cycles(at), op); err != nil {
		t.Fatal(err)
	}
}

func openChaosNode(t *testing.T, s *Server, npus int, scale *AutoscaleConfig) *NodeSession {
	t.Helper()
	ns, err := s.OpenNode(NodeConfig{
		NPUs: npus, Routing: cluster.LeastWork,
		Session:   SessionConfig{Policy: "PREMA", Preemptive: true, Horizon: rampHorizon},
		Autoscale: scale,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

// TestScheduleValidation exercises the schedule-time guards.
func TestScheduleValidation(t *testing.T) {
	s := newServer(t)
	ns := openChaosNode(t, s, 2, nil)
	cases := []struct {
		name string
		at   time.Duration
		op   NodeOp
	}{
		{"negative time", -time.Millisecond, NodeOp{Kind: FailNPU}},
		{"negative npu", time.Millisecond, NodeOp{Kind: FailNPU, NPU: -1}},
		{"slow factor 1", time.Millisecond, NodeOp{Kind: SlowNPU, NPU: 0, Factor: 1}},
		// Far in the future, so nothing below fires them if accepted.
		{"slow factor NaN", time.Hour, NodeOp{Kind: SlowNPU, NPU: 0, Factor: math.NaN()}},
		{"slow factor +Inf", time.Hour, NodeOp{Kind: SlowNPU, NPU: 0, Factor: math.Inf(1)}},
		{"slow factor above the bound", time.Hour, NodeOp{Kind: SlowNPU, NPU: 0, Factor: npu.MaxSpeedFactor + 0.5}},
		{"slow factor 1e300", time.Hour, NodeOp{Kind: SlowNPU, NPU: 0, Factor: 1e300}},
		{"factor on fail", time.Millisecond, NodeOp{Kind: FailNPU, NPU: 0, Factor: 2}},
		{"unknown kind", time.Millisecond, NodeOp{Kind: OpKind(99), NPU: 0}},
	}
	for _, c := range cases {
		if err := ns.ScheduleCycle(ns.srv.cfg.Cycles(c.at), c.op); err == nil {
			t.Errorf("%s: schedule accepted", c.name)
		}
	}

	// The clock never rewinds: an operation timestamped before the
	// stream clock is refused, while scheduling ahead of a live stream
	// is the control plane's bread and butter and must work.
	if _, err := ns.Offer(Spec{Horizon: 20 * time.Millisecond, OfferedLoad: 1,
		Models: rampModels, BatchSizes: []int{1}}, workload.RNGFor(3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ns.ScheduleCycle(ns.srv.cfg.Cycles(time.Millisecond), NodeOp{Kind: CordonNPU, NPU: 0}); err == nil {
		t.Error("schedule in the past accepted")
	}
	if err := ns.ScheduleCycle(ns.srv.cfg.Cycles(30*time.Millisecond), NodeOp{Kind: CordonNPU, NPU: 0}); err != nil {
		t.Errorf("mid-stream future schedule refused: %v", err)
	}
	// A mid-stream failure is an ordinary operation: the backend's own
	// stream holds the in-flight requests it reclaims.
	if err := ns.ScheduleCycle(ns.srv.cfg.Cycles(40*time.Millisecond), NodeOp{Kind: FailNPU, NPU: 1}); err != nil {
		t.Errorf("mid-stream failure refused: %v", err)
	}
}

// TestMidStreamFailureMatchesUpFront: a failure scheduled mid-stream on
// a node opened with no option reclaims and re-routes exactly what the
// same failure scheduled before the first request does — statistics,
// timeline and trace deep-equal, under every router.
func TestMidStreamFailureMatchesUpFront(t *testing.T) {
	for _, routing := range []cluster.RoutingPolicy{cluster.RoundRobin, cluster.LeastQueued, cluster.LeastWork} {
		run := func(midStream bool) (NodeStats, []NodeEvent, []telemetry.Event) {
			s := newServer(t)
			ns, err := s.OpenNode(NodeConfig{
				NPUs: 3, Routing: routing,
				Session: SessionConfig{Policy: "PREMA", Preemptive: true},
				Trace:   telemetry.New(),
			})
			if err != nil {
				t.Fatal(err)
			}
			const scheduleAt, failAt = 15 * time.Millisecond, 25 * time.Millisecond
			fail := NodeOp{Kind: FailNPU, NPU: 1}
			if !midStream {
				mustSchedule(t, ns, failAt, fail)
			}
			for _, req := range liveStream(t, s, 97, 4, 10*time.Millisecond, 2.5) {
				if midStream && req.Arrival >= s.cfg.Cycles(scheduleAt) {
					mustSchedule(t, ns, failAt, fail)
					midStream = false
				}
				if err := ns.Submit(req); err != nil {
					t.Fatal(err)
				}
			}
			if ns.reclaims == 0 {
				t.Fatalf("%v: the failure reclaimed nothing", routing)
			}
			st, err := ns.Stats()
			if err != nil {
				t.Fatal(err)
			}
			events, err := ns.TraceEvents()
			if err != nil {
				t.Fatal(err)
			}
			return st, ns.Timeline(), events
		}
		upStats, upTimeline, upTrace := run(false)
		midStats, midTimeline, midTrace := run(true)
		if !reflect.DeepEqual(upStats, midStats) {
			t.Errorf("%v: stats differ:\n up front   %+v\n mid-stream %+v", routing, upStats, midStats)
		}
		if !reflect.DeepEqual(upTimeline, midTimeline) {
			t.Errorf("%v: timelines differ:\n up front   %+v\n mid-stream %+v", routing, upTimeline, midTimeline)
		}
		if !reflect.DeepEqual(upTrace, midTrace) {
			t.Errorf("%v: traces differ (%d vs %d events)", routing, len(upTrace), len(midTrace))
		}
	}
}

// TestOfferClientsPinsOnlyRoutableBackends: a client population offered
// after a failure and a cordon have fired runs on the one backend still
// in rotation.
func TestOfferClientsPinsOnlyRoutableBackends(t *testing.T) {
	s := newServer(t)
	ns := openChaosNode(t, s, 3, nil)
	mustSchedule(t, ns, 5*time.Millisecond, NodeOp{Kind: FailNPU, NPU: 1})
	mustSchedule(t, ns, 5*time.Millisecond, NodeOp{Kind: CordonNPU, NPU: 2})
	if err := ns.AdvanceToCycle(ns.srv.cfg.Cycles(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	n, err := ns.OfferClients(ClientSpec{Clients: 4, Think: 2 * time.Millisecond,
		Horizon: 40 * time.Millisecond, Models: rampModels}, workload.RNGFor(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if routed := ns.Routed(); routed[0] != n || routed[1] != 0 || routed[2] != 0 {
		t.Errorf("%d realized requests landed %v; want all on npu0 (npu1 failed, npu2 cordoned)", n, routed)
	}
}

// TestFailureRefusedAfterClients: pinned closed-loop requests never pass
// the router, so a failure scheduled after them could not reclaim them.
// It is refused with OfferClients' message for the reverse order; a
// slowdown or a cordon after clients is still accepted.
func TestFailureRefusedAfterClients(t *testing.T) {
	s := newServer(t)
	spec := ClientSpec{Clients: 4, Think: 2 * time.Millisecond,
		Horizon: 40 * time.Millisecond, Models: rampModels}
	ns := openChaosNode(t, s, 2, nil)
	if _, err := ns.OfferClients(spec, workload.RNGFor(7, 1)); err != nil {
		t.Fatal(err)
	}
	failErr := ns.ScheduleCycle(ns.srv.cfg.Cycles(10*time.Millisecond), NodeOp{Kind: FailNPU, NPU: 1})
	if failErr == nil {
		t.Fatal("failure scheduled after closed-loop clients accepted")
	}
	mustSchedule(t, ns, 10*time.Millisecond, NodeOp{Kind: SlowNPU, NPU: 1, Factor: 2})
	mustSchedule(t, ns, 10*time.Millisecond, NodeOp{Kind: CordonNPU, NPU: 0})

	reverse := openChaosNode(t, s, 2, nil)
	mustSchedule(t, reverse, 10*time.Millisecond, NodeOp{Kind: FailNPU, NPU: 1})
	_, clientsErr := reverse.OfferClients(spec, workload.RNGFor(7, 1))
	if clientsErr == nil || clientsErr.Error() != failErr.Error() {
		t.Errorf("failure after clients refused with %q, clients after a failure with %v", failErr, clientsErr)
	}
}

// TestFailureReclaimConservesRequests: a mid-stream failure removes the
// backend from rotation, re-routes its in-flight work, and the node
// still accounts for every submitted request exactly once.
func TestFailureReclaimConservesRequests(t *testing.T) {
	s := newServer(t)
	ns := openChaosNode(t, s, 3, nil)
	mustSchedule(t, ns, 60*time.Millisecond, NodeOp{Kind: FailNPU, NPU: 1})

	n := offerRamp(t, ns, 17)
	if err := ns.AdvanceToCycle(ns.srv.cfg.Cycles(rampHorizon)); err != nil {
		t.Fatal(err)
	}
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n {
		t.Errorf("aggregate requests = %d, submitted %d: reclaim lost or duplicated work", st.Requests, n)
	}
	total := 0
	for _, r := range ns.Routed() {
		total += r
	}
	if total != n {
		t.Errorf("sum of routed streams = %d, submitted %d", total, n)
	}

	events := ns.Timeline()
	var failed bool
	for _, e := range events {
		if e.Kind == "fail" {
			failed = true
			if e.NPU != 1 || e.Delta != -1 || e.Active != 2 {
				t.Errorf("fail event = %+v, want npu1 delta -1 active 2", e)
			}
		}
	}
	if !failed {
		t.Fatal("no fail event in timeline")
	}
}

// TestFailureStopsRoutingToLostBackend: after the failure instant no
// new work lands on the failed backend.
func TestFailureStopsRoutingToLostBackend(t *testing.T) {
	s := newServer(t)
	ns := openChaosNode(t, s, 2, nil)
	const failAt = 40 * time.Millisecond
	mustSchedule(t, ns, failAt, NodeOp{Kind: FailNPU, NPU: 0})
	offerRamp(t, ns, 5)

	failCycle := s.cfg.Cycles(failAt)
	for _, b := range ns.backends[0].reqs {
		if b.Arrival > failCycle {
			t.Errorf("request arriving at %d routed to npu0 after its failure at %d", b.Arrival, failCycle)
		}
	}
}

// TestChaosDeterministicReplay: the same configuration, schedule and
// seed produce identical timelines and statistics across two runs.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() ([]NodeEvent, NodeStats) {
		s := newServer(t)
		ns := openChaosNode(t, s, 3, &AutoscaleConfig{
			Scaler: "queue-depth", SLO: 8 * time.Millisecond, MinNPUs: 1, MaxNPUs: 6,
		})
		mustSchedule(t, ns, 50*time.Millisecond, NodeOp{Kind: SlowNPU, NPU: 0, Factor: 2.5})
		mustSchedule(t, ns, 70*time.Millisecond, NodeOp{Kind: FailNPU, NPU: 1})
		mustSchedule(t, ns, 110*time.Millisecond, NodeOp{Kind: RestoreNPU, NPU: 0})
		offerRamp(t, ns, 23)
		if err := ns.AdvanceToCycle(ns.srv.cfg.Cycles(rampHorizon)); err != nil {
			t.Fatal(err)
		}
		st, err := ns.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return ns.Timeline(), st
	}
	ev1, st1 := run()
	ev2, st2 := run()
	if len(ev1) != len(ev2) {
		t.Fatalf("timeline lengths differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Errorf("timeline[%d] differs: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	if st1.BatchStats != st2.BatchStats {
		t.Errorf("stats differ:\n %+v\n %+v", st1.BatchStats, st2.BatchStats)
	}
	if st1.Scaling.SLOViolationFrac != st2.Scaling.SLOViolationFrac ||
		len(st1.Scaling.Events) != len(st2.Scaling.Events) {
		t.Errorf("scaling views differ: %+v vs %+v", st1.Scaling, st2.Scaling)
	}
}

// TestSlowdownDegradesLatency: the same stream served with a slowed
// backend must realize a worse mean latency than the nominal fleet.
func TestSlowdownDegradesLatency(t *testing.T) {
	run := func(slow bool) BatchStats {
		s := newServer(t)
		ns := openChaosNode(t, s, 2, nil)
		if slow {
			mustSchedule(t, ns, 20*time.Millisecond, NodeOp{Kind: SlowNPU, NPU: 0, Factor: 4})
		}
		offerRamp(t, ns, 9)
		st, err := ns.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return st.BatchStats
	}
	nominal := run(false)
	slowed := run(true)
	if slowed.MeanLatencyMS <= nominal.MeanLatencyMS {
		t.Errorf("4x slowdown did not degrade latency: slowed %.3fms <= nominal %.3fms",
			slowed.MeanLatencyMS, nominal.MeanLatencyMS)
	}
}

// TestReclaimTailKeepsFactors: cutting the in-flight tail off a traced
// stream returns it and its trace IDs in submission order and keeps
// every remaining request paired with its own service-time factor and
// trace ID.
func TestReclaimTailKeepsFactors(t *testing.T) {
	s := newServer(t)
	ss, err := s.Open(SessionConfig{Policy: "FCFS"})
	if err != nil {
		t.Fatal(err)
	}
	ss.traced = true
	var reqs []*workload.Task
	for k, f := range []float64{1, 2, 3, 4} {
		r, err := s.gen.InstanceByName(k, "CNN-AN", 1, sched.Low, int64(k), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.submit(r, f, 10+k); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	if tail, ids := ss.reclaimTail(0); tail != nil || ids != nil {
		t.Errorf("reclaiming nothing returned %d requests, IDs %v", len(tail), ids)
	}
	tail, ids := ss.reclaimTail(2)
	if len(tail) != 2 || tail[0] != reqs[2] || tail[1] != reqs[3] || !slices.Equal(ids, []int{12, 13}) {
		t.Errorf("reclaimed %d requests, IDs %v; want requests 2 and 3 in order, IDs [12 13]", len(tail), ids)
	}
	if len(ss.reqs) != 2 || ss.Pending() != 2 || ss.reqs[0] != reqs[0] || ss.reqs[1] != reqs[1] ||
		ss.factor(0) != 1 || ss.factor(1) != 2 || !slices.Equal(ss.ids, []int{10, 11}) {
		t.Errorf("after reclaiming the last two: %d requests, factors %v, IDs %v; want requests 0 and 1 at x1 and x2, IDs [10 11]",
			len(ss.reqs), ss.factors, ss.ids)
	}
}

// TestCordonDrainRestore: a cordoned backend receives nothing while out
// of rotation and serves again after uncordon.
func TestCordonDrainRestore(t *testing.T) {
	s := newServer(t)
	ns := openChaosNode(t, s, 2, nil)
	const cordonAt, uncordonAt = 40 * time.Millisecond, 120 * time.Millisecond
	mustSchedule(t, ns, cordonAt, NodeOp{Kind: CordonNPU, NPU: 0})
	mustSchedule(t, ns, uncordonAt, NodeOp{Kind: UncordonNPU, NPU: 0})
	offerRamp(t, ns, 29)

	lo, hi := s.cfg.Cycles(cordonAt), s.cfg.Cycles(uncordonAt)
	var during, after int
	for _, b := range ns.backends[0].reqs {
		switch {
		case b.Arrival > lo && b.Arrival <= hi:
			during++
		case b.Arrival > hi:
			after++
		}
	}
	if during != 0 {
		t.Errorf("%d requests routed to npu0 while cordoned", during)
	}
	if after == 0 {
		t.Error("no requests routed to npu0 after uncordon")
	}
	// The cordon window changed the routable count both ways.
	var deltas []int
	for _, e := range ns.Timeline() {
		if e.Kind == "cordon" || e.Kind == "uncordon" {
			deltas = append(deltas, e.Delta)
		}
	}
	if len(deltas) != 2 || deltas[0] != -1 || deltas[1] != +1 {
		t.Errorf("cordon/uncordon deltas = %v, want [-1 +1]", deltas)
	}
}

// TestScalerRecoversAfterFailure is the closed-loop recovery anchor: a
// queue-depth scaler under sustained load refills the fleet after an
// injected failure.
func TestScalerRecoversAfterFailure(t *testing.T) {
	s := newServer(t)
	ns := openChaosNode(t, s, 2, &AutoscaleConfig{
		Scaler: "queue-depth", SLO: 8 * time.Millisecond, MinNPUs: 2, MaxNPUs: 6,
	})
	const failAt = 80 * time.Millisecond
	mustSchedule(t, ns, failAt, NodeOp{Kind: FailNPU, NPU: 0})
	// Sustained 2x load so the scaler has pressure to respond to.
	if _, err := ns.OfferRamp(Spec{Horizon: rampSegment, Models: rampModels,
		BatchSizes: []int{1}}, []float64{2, 2, 2, 2, 2}, workload.RNGFor(31, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ns.AdvanceToCycle(ns.srv.cfg.Cycles(rampHorizon)); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Drain(); err != nil {
		t.Fatal(err)
	}

	events := ns.Timeline()
	failCycle := s.cfg.Cycles(failAt)
	var preFail, postFail int
	var sawFail bool
	for _, e := range events {
		if e.Kind == "fail" {
			sawFail = true
			preFail = e.Active - e.Delta
		}
		if sawFail && e.Cycle >= failCycle {
			if e.Active > postFail {
				postFail = e.Active
			}
		}
	}
	if !sawFail {
		t.Fatal("no fail event fired")
	}
	if postFail < preFail {
		t.Errorf("scaler never recovered the fleet: pre-failure %d, post-failure peak %d", preFail, postFail)
	}
}

// TestFailLastActiveSurfaces: failing the only routable backend must
// surface an error, not leave the routers with nothing.
func TestFailLastActiveSurfaces(t *testing.T) {
	s := newServer(t)
	ns := openChaosNode(t, s, 1, nil)
	mustSchedule(t, ns, 10*time.Millisecond, NodeOp{Kind: FailNPU, NPU: 0})
	if err := ns.AdvanceToCycle(ns.srv.cfg.Cycles(20 * time.Millisecond)); err == nil {
		t.Fatal("failing the last active NPU did not error")
	}
}

// TestNoEventScheduleIsIdentical: a session with a failure armed but
// never firing matches a plain session byte-for-byte.
func TestNoEventScheduleIsIdentical(t *testing.T) {
	run := func(withOp bool) NodeStats {
		s := newServer(t)
		ns := openChaosNode(t, s, 2, nil)
		if withOp {
			// Scheduled far beyond the stream: the queue is live, but
			// nothing fires before Drain.
			mustSchedule(t, ns, time.Hour, NodeOp{Kind: FailNPU, NPU: 0})
		}
		offerRamp(t, ns, 41)
		st, err := ns.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain := run(false)
	tracked := run(true)
	if plain.BatchStats != tracked.BatchStats {
		t.Errorf("armed-but-idle chaos machinery changed output:\n %+v\n %+v",
			plain.BatchStats, tracked.BatchStats)
	}
}

// TestMeanFleetMatchesScaleEvents: integrating the full node timeline,
// zero-delta slowdown and restore events included, gives the same bits
// as the integral over the filtered ScaleEvent view that ScalingStats
// took before it shared MeanFleet with the run report — at every event
// instant, between events and past the last one.
func TestMeanFleetMatchesScaleEvents(t *testing.T) {
	// meanNPUs is ScalingStats' former integrator, kept as the reference.
	meanNPUs := func(events []ScaleEvent, makespan int64) float64 {
		if makespan <= events[0].Cycle {
			return float64(events[0].NPUs)
		}
		var area float64
		prev := events[0]
		for _, e := range events[1:] {
			if e.Cycle > makespan {
				break
			}
			area += float64(prev.NPUs) * float64(e.Cycle-prev.Cycle)
			prev = e
		}
		area += float64(prev.NPUs) * float64(makespan-prev.Cycle)
		return area / float64(makespan)
	}
	s := newServer(t)
	for seed := uint64(1); seed <= 4; seed++ {
		ns := openChaosNode(t, s, 2, &AutoscaleConfig{
			Scaler: "queue-depth", SLO: 8 * time.Millisecond, MinNPUs: 2, MaxNPUs: 6,
		})
		mustSchedule(t, ns, 30*time.Millisecond, NodeOp{Kind: SlowNPU, NPU: 1, Factor: 2})
		mustSchedule(t, ns, 60*time.Millisecond, NodeOp{Kind: FailNPU, NPU: 0})
		mustSchedule(t, ns, 100*time.Millisecond, NodeOp{Kind: RestoreNPU, NPU: 1})
		offerRamp(t, ns, seed)
		if err := ns.AdvanceToCycle(ns.srv.cfg.Cycles(rampHorizon)); err != nil {
			t.Fatal(err)
		}
		timeline := ns.Timeline()
		var filtered []ScaleEvent
		for i, e := range timeline {
			if i == 0 || e.Delta != 0 {
				filtered = append(filtered, ScaleEvent{Cycle: e.Cycle, Delta: e.Delta, NPUs: e.Active})
			}
		}
		if len(filtered) == len(timeline) || len(filtered) < 4 {
			t.Fatalf("seed %d: timeline %+v lacks scaling steps or zero-delta events", seed, timeline)
		}
		var spans []int64
		for _, e := range timeline {
			spans = append(spans, e.Cycle, e.Cycle+1, e.Cycle+7919)
		}
		for _, span := range spans {
			if span <= 0 {
				continue
			}
			if got, want := MeanFleet(timeline, span), meanNPUs(filtered, span); got != want {
				t.Errorf("seed %d span %d: MeanFleet %v, scale-event integral %v", seed, span, got, want)
			}
		}
		if err := ns.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
