package serving

// live_test.go proves the live backends against a from-scratch replay.
// At every poll, each backend's memoized samples and traced completions
// must equal those of replay — the unbatched refresh as it was before
// backends kept a live simulator: materialize every request, simulate the
// whole stream from cycle 0, collect — and the node's Stats and
// TraceEvents must equal what the node derives from the replays.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// replay recomputes a backend's samples, and its completions when traced,
// from scratch: the reference the live path must match. Batched sessions
// re-simulate from cycle 0 anyway; their reference is the same coalesced
// run.
func replay(t *testing.T, ss *Session) (*sampleSet, []completionRec) {
	t.Helper()
	fresh := make([]*workload.Task, len(ss.reqs))
	for i, r := range ss.reqs {
		fresh[i] = materialize(i, r, ss.factor(i))
	}
	if ss.cfg.Window > 0 {
		tasks, members, err := ss.coalesce(fresh)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ss.srv.simulate(ss.cfg.Policy, ss.cfg.Preemptive, ss.cfg.Selector, tasks)
		if err != nil {
			t.Fatal(err)
		}
		return ss.srv.collectMembers(res, members, ss.cut()), nil
	}
	res, err := ss.srv.simulate(ss.cfg.Policy, ss.cfg.Preemptive, ss.cfg.Selector, fresh)
	if err != nil {
		t.Fatal(err)
	}
	var completions []completionRec
	if ss.traced {
		kept := ss.completions
		ss.completions = nil
		ss.retainCompletions(res.Tasks)
		completions, ss.completions = ss.completions, kept
	}
	return ss.srv.collectTasks(res, ss.cut()), completions
}

// backendMemo is the state checkReplay swaps out and back in.
type backendMemo struct {
	samples     sampleSet
	completions []completionRec
	last        BatchStats
	statsValid  bool
}

// checkReplay polls the node — Stats and, traced, TraceEvents — and
// checks every backend's refreshed samples and completions against its
// replay, then the node's answers against the ones it derives with the
// replays swapped in. Both derivations bypass the node-level memo, which
// is keyed on submissions alone and so can lag a timeline change.
func checkReplay(t *testing.T, ns *NodeSession, label string) {
	t.Helper()
	ns.statsValid = false
	got, err := ns.Stats()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	var gotEvents []telemetry.Event
	if ns.tracer() != nil {
		if gotEvents, err = ns.TraceEvents(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	saved := make([]backendMemo, len(ns.backends))
	for i, b := range ns.backends {
		saved[i] = backendMemo{b.samples, b.completions, b.last, b.statsValid}
		if b.Pending() == 0 {
			continue
		}
		if b.dirty {
			t.Fatalf("%s: NPU %d still dirty after Stats", label, i)
		}
		sm, completions := replay(t, b)
		if !reflect.DeepEqual(b.samples, *sm) {
			t.Fatalf("%s: NPU %d samples diverge from the replay:\n live   %+v\n replay %+v", label, i, b.samples, *sm)
		}
		if !reflect.DeepEqual(b.completions, completions) {
			t.Fatalf("%s: NPU %d completions diverge from the replay", label, i)
		}
		b.samples, b.completions, b.statsValid = *sm, completions, false
	}
	last, statsAt := ns.last, ns.statsAt
	ns.statsValid = false
	want, err := ns.Stats()
	if err != nil {
		t.Fatalf("%s: replayed stats: %v", label, err)
	}
	var wantEvents []telemetry.Event
	if ns.tracer() != nil {
		if wantEvents, err = ns.TraceEvents(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	for i, b := range ns.backends {
		m := saved[i]
		b.samples, b.completions, b.last, b.statsValid = m.samples, m.completions, m.last, m.statsValid
	}
	ns.last, ns.statsAt, ns.statsValid = last, statsAt, true

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Stats diverge from the replay:\n live   %+v\n replay %+v", label, got, want)
	}
	if !reflect.DeepEqual(gotEvents, wantEvents) {
		t.Fatalf("%s: TraceEvents diverge from the replay (%d vs %d events)", label, len(gotEvents), len(wantEvents))
	}
}

// liveStream generates a segmented open-loop stream of the interactive
// model mix, batch 1.
func liveStream(t *testing.T, s *Server, seed uint64, segments int, segment time.Duration,
	load float64) []*workload.Task {
	t.Helper()
	rng := workload.RNGFor(seed, 0)
	var stream []*workload.Task
	for i := 0; i < segments; i++ {
		tasks, err := s.Generate(Spec{
			Horizon: segment, Offset: time.Duration(i) * segment, OfferedLoad: load,
			Models: []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"}, BatchSizes: []int{1},
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, tasks...)
	}
	return stream
}

// stepper submits a stream in arrival order up to a stream clock that
// advances step by step, as the control plane does.
type stepper struct {
	ns     *NodeSession
	stream []*workload.Task
	next   int
}

// to submits every arrival strictly before cycle at and advances the
// node's clock to it.
func (st *stepper) to(t *testing.T, at int64) {
	t.Helper()
	for ; st.next < len(st.stream) && st.stream[st.next].Arrival < at; st.next++ {
		if err := st.ns.Submit(st.stream[st.next]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.ns.AdvanceToCycle(at); err != nil {
		t.Fatal(err)
	}
}

// TestLiveMatchesReplayScriptedSession drives a traced, autoscaled node
// the way a scripted premactl session does — 1 ms steps, a snapshot
// after each — through a slowdown, a failure, an operator drain and a
// manual scale-up.
func TestLiveMatchesReplayScriptedSession(t *testing.T) {
	s := newServer(t)
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 3, Routing: cluster.LeastWork, TrackWork: true,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true, Selector: "dynamic"},
		Autoscale: &AutoscaleConfig{Scaler: "queue-depth", SLO: 8 * time.Millisecond,
			MinNPUs: 2, MaxNPUs: 5},
		Trace: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := func(n int) int64 { return s.cfg.Cycles(time.Duration(n) * time.Millisecond) }
	for _, op := range []struct {
		at int
		op NodeOp
	}{
		{8, NodeOp{Kind: SlowNPU, NPU: 0, Factor: 2}},
		{20, NodeOp{Kind: FailNPU, NPU: 1}},
		{30, NodeOp{Kind: RestoreNPU, NPU: 0}},
	} {
		if err := ns.ScheduleCycle(ms(op.at), op.op); err != nil {
			t.Fatal(err)
		}
	}
	st := &stepper{ns: ns, stream: liveStream(t, s, 71, 5, 10*time.Millisecond, 2.5)}
	for step := 1; step <= 50; step++ {
		st.to(t, ms(step))
		switch step {
		case 15:
			if err := ns.RetireBackend(2); err != nil {
				t.Fatal(err)
			}
		case 35:
			if err := ns.ScaleTo(4); err != nil {
				t.Fatal(err)
			}
		}
		if ns.Pending() > 0 {
			checkReplay(t, ns, fmt.Sprintf("step %d ms", step))
		}
	}
	if ns.reclaims == 0 {
		t.Error("the failure reclaimed nothing; the scenario lost its rebuild")
	}
}

// TestLiveMatchesReplayTieredReclaim polls a heterogeneous fleet through
// a failure whose reclaimed requests re-route across tiers.
func TestLiveMatchesReplayTieredReclaim(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "70%:fast,30%:slow")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 4, Fleet: tiers, Routing: cluster.LeastWork, TrackWork: true,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true},
		Trace:   telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.Schedule(15*time.Millisecond, NodeOp{Kind: FailNPU, NPU: 0}); err != nil {
		t.Fatal(err)
	}
	stream := liveStream(t, s, 73, 3, 10*time.Millisecond, 3.5)
	for i, req := range stream {
		if err := ns.Submit(req); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			checkReplay(t, ns, "tiered")
		}
	}
	checkReplay(t, ns, "tiered, final")
	if ns.reclaims == 0 {
		t.Error("the failure reclaimed nothing")
	}
}

// TestLiveBatchedSessionsResimulate polls a batched node: its backends
// keep re-simulating from cycle 0 and never hold a live simulator.
func TestLiveBatchedSessionsResimulate(t *testing.T) {
	s := newServer(t)
	ns := openNode(t, s, 2, cluster.LeastWork, SessionConfig{Policy: "FCFS", Window: 2 * time.Millisecond})
	stream := liveStream(t, s, 79, 2, 20*time.Millisecond, 1.5)
	for i, req := range stream {
		if err := ns.Submit(req); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			checkReplay(t, ns, "batched")
		}
	}
	for i, b := range ns.backends {
		if b.live != nil || b.Materialized() != 0 {
			t.Errorf("batched NPU %d kept a live simulator (%d entries)", i, b.Materialized())
		}
	}
}

// TestLiveClientsThenSubmit polls a traced node whose closed-loop
// clients interleave with open-loop submissions before and after them:
// the realized client stream reaches back before the live bound, so the
// next refresh rebuilds each backend.
func TestLiveClientsThenSubmit(t *testing.T) {
	s := newServer(t)
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 2, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true},
		Trace:   telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := liveStream(t, s, 83, 4, 10*time.Millisecond, 1)
	for _, req := range stream[:6] {
		if err := ns.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	checkReplay(t, ns, "before clients")
	if _, err := ns.OfferClients(ClientSpec{
		Clients: 4, Think: 2 * time.Millisecond, Horizon: 40 * time.Millisecond,
		Models: []string{"CNN-AN", "RNN-SA"},
	}, workload.RNGFor(83, 1)); err != nil {
		t.Fatal(err)
	}
	checkReplay(t, ns, "after clients")
	for i, req := range stream[6:] {
		if err := ns.Submit(req); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			checkReplay(t, ns, "clients then submit")
		}
	}
	checkReplay(t, ns, "clients then submit, final")
	for i, b := range ns.backends {
		if b.Rebuilds() < 2 {
			t.Errorf("NPU %d built %d live simulators; the clients' arrivals should have forced a rebuild", i, b.Rebuilds())
		}
	}
}

// TestLiveRefreshIsIncremental pins the mechanism: a 2,000-request
// backend that gains one request materializes exactly that one at the
// next Stats, without a rebuild, and a backend that loses its in-flight
// work to a failure rebuilds exactly once.
func TestLiveRefreshIsIncremental(t *testing.T) {
	s := newServer(t)
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 2, Routing: cluster.RoundRobin, TrackWork: true,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin hands the backends alternate requests of a stream
	// spaced so that each one queues briefly behind the last.
	rng := workload.RNGFor(89, 1)
	var at int64
	submit := func() {
		t.Helper()
		req, err := s.gen.InstanceByName(0, "CNN-AN", 1, sched.Medium, at, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := ns.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		submit()
		at += ns.backends[0].reqs[0].IsolatedCycles * 3 / 5
	}
	for i := 0; i < 4000; i++ {
		step()
	}
	if _, err := ns.Stats(); err != nil {
		t.Fatal(err)
	}
	b0, b1 := ns.backends[0], ns.backends[1]
	if b0.Pending() != 2000 || b0.Materialized() != 2000 || b0.Rebuilds() != 1 {
		t.Fatalf("first Stats: %d requests, %d materialized, %d rebuilds; want 2000, 2000, 1",
			b0.Pending(), b0.Materialized(), b0.Rebuilds())
	}
	step() // the 4,001st request lands on NPU 0
	checkReplay(t, ns, "one more request")
	if b0.Materialized() != 2001 || b0.Rebuilds() != 1 {
		t.Errorf("one new request: %d materialized, %d rebuilds; want 2001 and 1",
			b0.Materialized(), b0.Rebuilds())
	}
	if b1.Materialized() != 2000 || b1.Rebuilds() != 1 {
		t.Errorf("untouched NPU 1: %d materialized, %d rebuilds; want 2000 and 1",
			b1.Materialized(), b1.Rebuilds())
	}

	// A burst hands each NPU one more request at the same instant, and
	// NPU 1 fails right then: its in-flight requests re-route to NPU 0 as
	// appended arrivals, and NPU 1's shrunken stream rebuilds.
	submit()
	submit()
	if err := ns.ScheduleCycle(at, NodeOp{Kind: FailNPU, NPU: 1}); err != nil {
		t.Fatal(err)
	}
	if err := ns.AdvanceToCycle(at); err != nil {
		t.Fatal(err)
	}
	reclaimed := ns.reclaims
	if reclaimed == 0 {
		t.Fatal("the failure reclaimed nothing")
	}
	checkReplay(t, ns, "after the reclaim")
	if b1.Rebuilds() != 2 || b1.Materialized() != 2000+b1.Pending() {
		t.Errorf("failed NPU 1: %d rebuilds, %d materialized; want 2 and %d",
			b1.Rebuilds(), b1.Materialized(), 2000+b1.Pending())
	}
	if b0.Rebuilds() != 1 || b0.Materialized() != 2002+reclaimed {
		t.Errorf("NPU 0 after taking %d re-routed requests: %d rebuilds, %d materialized; want 1 and %d",
			reclaimed, b0.Rebuilds(), b0.Materialized(), 2002+reclaimed)
	}
}

// TestClosedSessionAnswersCounts pins what Close keeps: the stream's
// templates, samples, completions and live simulator go, and the counts
// Pending, Routed and Fleet answer as before.
func TestClosedSessionAnswersCounts(t *testing.T) {
	s := newServer(t)
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 3, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true},
		Trace:   telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range liveStream(t, s, 97, 2, 10*time.Millisecond, 2) {
		if err := ns.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ns.Stats(); err != nil {
		t.Fatal(err)
	}
	pending, routed, fleet := ns.Pending(), ns.Routed(), ns.Fleet()
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	if ns.Pending() != pending || !reflect.DeepEqual(ns.Routed(), routed) || !reflect.DeepEqual(ns.Fleet(), fleet) {
		t.Errorf("counts moved on Close: pending %d→%d, routed %v→%v, fleet %+v→%+v",
			pending, ns.Pending(), routed, ns.Routed(), fleet, ns.Fleet())
	}
	for i, b := range ns.backends {
		if b.reqs != nil || b.live != nil || b.view != nil || b.completions != nil || b.samples.latencies != nil {
			t.Errorf("closed NPU %d still pins its stream", i)
		}
	}
}

// TestLiveSessionRebuildsOnEarlierArrival covers a standalone session fed
// out of arrival order: a request arriving before the bound the live
// simulator already ran to rebuilds it, and one at or after the bound is
// admitted.
func TestLiveSessionRebuildsOnEarlierArrival(t *testing.T) {
	s := newServer(t)
	sess, err := s.Open(SessionConfig{Policy: "SJF", Preemptive: true, Selector: "static-kill"})
	if err != nil {
		t.Fatal(err)
	}
	stream := liveStream(t, s, 101, 2, 10*time.Millisecond, 1.5)
	half := len(stream) / 2
	poll := func(label string, rebuilds, materialized int) {
		t.Helper()
		if _, err := sess.Stats(); err != nil {
			t.Fatal(err)
		}
		sm, _ := replay(t, sess)
		if !reflect.DeepEqual(sess.samples, *sm) {
			t.Fatalf("%s: samples diverge from the replay", label)
		}
		if sess.Rebuilds() != rebuilds || sess.Materialized() != materialized {
			t.Errorf("%s: %d rebuilds, %d materialized; want %d and %d",
				label, sess.Rebuilds(), sess.Materialized(), rebuilds, materialized)
		}
	}
	for _, req := range stream[half:] {
		if err := sess.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	poll("second half", 1, len(stream)-half)
	if err := sess.Submit(stream[len(stream)-1]); err != nil { // at the bound: admitted
		t.Fatal(err)
	}
	poll("arrival at the bound", 1, len(stream)-half+1)
	for _, req := range stream[:half] { // before the bound: rebuild
		if err := sess.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	poll("earlier arrivals", 2, 2*(len(stream)-half+1)+half)
}
