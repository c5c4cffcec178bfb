package serving

// chaos_test.go locks in the fault-injection contracts of the node
// session: failures reclaim exactly the in-flight work and conserve
// requests, slowdowns stretch routed work consistently across the fluid
// and realized views, cordons take backends out of rotation reversibly,
// the whole event machinery replays deterministically per seed, and a
// scaler recovers the fleet after an injected loss.

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/workload"
)

func mustSchedule(t *testing.T, ns *NodeSession, at time.Duration, op NodeOp) {
	t.Helper()
	if err := ns.Schedule(at, op); err != nil {
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
		{"factor on fail", time.Millisecond, NodeOp{Kind: FailNPU, NPU: 0, Factor: 2}},
		{"unknown kind", time.Millisecond, NodeOp{Kind: OpKind(99), NPU: 0}},
	}
	for _, c := range cases {
		if err := ns.Schedule(c.at, c.op); err == nil {
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
	if err := ns.Schedule(time.Millisecond, NodeOp{Kind: CordonNPU, NPU: 0}); err == nil {
		t.Error("schedule in the past accepted")
	}
	if err := ns.Schedule(30*time.Millisecond, NodeOp{Kind: CordonNPU, NPU: 0}); err != nil {
		t.Errorf("mid-stream future schedule refused: %v", err)
	}
	// A mid-stream failure without the work ledger enabled at open has
	// nothing to reclaim from and must refuse cleanly.
	if err := ns.Schedule(40*time.Millisecond, NodeOp{Kind: FailNPU, NPU: 1}); err == nil {
		t.Error("mid-stream failure without TrackWork accepted")
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
	if err := ns.AdvanceTo(rampHorizon); err != nil {
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
		if err := ns.AdvanceTo(rampHorizon); err != nil {
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

// TestRemoveReqsKeepsFactors: pulling requests out of a stream keeps
// every remaining request paired with its own service-time factor.
func TestRemoveReqsKeepsFactors(t *testing.T) {
	s := newServer(t)
	ss, err := s.Open(SessionConfig{Policy: "FCFS"})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*workload.Task
	for k, f := range []float64{1, 2, 3, 4} {
		r, err := s.gen.InstanceByName(k, "CNN-AN", 1, sched.Low, int64(k), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.submit(r, f); err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	ss.removeReqs([]*workload.Task{reqs[0], reqs[2]})
	if len(ss.reqs) != 2 || ss.reqs[0] != reqs[1] || ss.reqs[1] != reqs[3] ||
		ss.factor(0) != 2 || ss.factor(1) != 4 {
		t.Errorf("after removing requests 0 and 2: %d requests, factors %v; want requests 1 and 3 at x2 and x4",
			len(ss.reqs), ss.factors)
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
	if err := ns.AdvanceTo(rampHorizon); err != nil {
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
	if err := ns.AdvanceTo(20 * time.Millisecond); err == nil {
		t.Fatal("failing the last active NPU did not error")
	}
}

// TestNoEventScheduleIsIdentical: a session with work tracking enabled
// but no operation ever firing matches a plain session byte-for-byte.
func TestNoEventScheduleIsIdentical(t *testing.T) {
	run := func(withOp bool) NodeStats {
		s := newServer(t)
		ns := openChaosNode(t, s, 2, nil)
		if withOp {
			// Scheduled far beyond the stream: tracking is on, the
			// queue is live, but nothing fires before Drain.
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
