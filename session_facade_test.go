package prema

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/workload"
)

// TestSessionStatsMatchServing proves the facade Session's incremental
// Stats are the same numbers internal/serving's batch entry point
// computes for the identical stream: submit the generated requests one
// by one, reading Stats along the way, and the final statistics must be
// float-for-float equal to Server.Run's.
func TestSessionStatsMatchServing(t *testing.T) {
	sys := newSystem(t)
	spec := serving.Spec{Horizon: 300 * time.Millisecond, OfferedLoad: 0.6}
	srv := serving.NewServer(sys.NPU(), sys.SchedConfig(), sys.gen)

	st, err := srv.Run(spec, []sched.Spec{{Policy: "PREMA", Preemptive: true, Selector: "dynamic"}}, workload.RNGFor(21, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := st[0]

	sess, err := sys.Open(SessionConfig{
		Scheduler: Scheduler{Policy: PREMA, Preemptive: true, Mechanism: Dynamic},
		Horizon:   spec.Horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	stream, err := srv.Generate(spec, workload.RNGFor(21, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Submit incrementally, reading stats midway to exercise the
	// incremental path before the final comparison.
	for i, req := range stream {
		if err := sess.SubmitInstance(req); err != nil {
			t.Fatal(err)
		}
		if i == len(stream)/2 {
			if _, err := sess.Stats(); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := sess.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if got.Requests != want.Requests || got.Measured != want.Measured {
		t.Errorf("counts diverge: got %d/%d, want %d/%d",
			got.Requests, got.Measured, want.Requests, want.Measured)
	}
	floats := [][2]float64{
		{got.ThroughputPerSec, want.ThroughputPerSec},
		{got.MeanLatencyMS, want.MeanLatencyMS},
		{got.P50LatencyMS, want.P50LatencyMS},
		{got.P95LatencyMS, want.P95LatencyMS},
		{got.P99LatencyMS, want.P99LatencyMS},
		{got.MeanNTT, want.MeanNTT},
		{got.SLAViolations4x, want.SLAViolations4x},
	}
	for i, pair := range floats {
		if pair[0] != pair[1] {
			t.Errorf("stat %d diverges: session %v, batch %v", i, pair[0], pair[1])
		}
	}
}

// TestSessionOpenLoop drives the facade's open-loop arrival process and
// the request-level Submit surface.
func TestSessionOpenLoop(t *testing.T) {
	sys := newSystem(t)
	sess, err := sys.Open(SessionConfig{
		Scheduler: Scheduler{Policy: PREMA, Preemptive: true},
		Window:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	n, err := sess.OfferLoad(0.5, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || sess.Pending() != n {
		t.Fatalf("offered %d, pending %d", n, sess.Pending())
	}
	if err := sess.Submit(Request{Model: "CNN-VN", Batch: 4, Priority: High,
		Arrival: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(Request{Model: "RNN-MT1",
		Arrival: 12 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	st, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n+2 {
		t.Errorf("stats cover %d requests, want %d", st.Requests, n+2)
	}
	if st.ThroughputPerSec <= 0 || st.P99LatencyMS < st.P50LatencyMS {
		t.Errorf("implausible stats: %+v", st)
	}
	if _, err := sess.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(Request{Model: "CNN-AN"}); err == nil {
		t.Error("submit after drain should error")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stats(); err == nil {
		t.Error("stats after close should error")
	}
	if _, err := sess.OfferLoad(0.5, time.Second); err == nil {
		t.Error("offer after close should error")
	}
}

// TestOpenNodeStreams exercises the node-level facade end to end: a
// 2-NPU node under every typed routing policy serves an open-loop
// stream, reporting per-NPU and aggregate statistics that add up.
func TestOpenNodeStreams(t *testing.T) {
	sys := newSystem(t)
	for _, routing := range Routings() {
		ns, err := sys.OpenNode(NodeSessionConfig{
			NPUs:    2,
			Routing: routing,
			Scheduler: Scheduler{
				Policy: PREMA, Preemptive: true, Mechanism: Dynamic,
			},
			Horizon: 250 * time.Millisecond,
			Seed:    7,
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := ns.OfferLoad(1.2, 250*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ns.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if st.Requests != n {
			t.Errorf("%s: aggregate covers %d of %d requests", routing, st.Requests, n)
		}
		if len(st.PerNPU) != 2 {
			t.Fatalf("%s: %d per-NPU views, want 2", routing, len(st.PerNPU))
		}
		total := 0
		for i, per := range st.PerNPU {
			total += per.Requests
			if per.Requests == 0 {
				t.Errorf("%s: NPU %d served nothing at 1.2 node load", routing, i)
			}
		}
		if total != st.Requests {
			t.Errorf("%s: per-NPU totals %d diverge from aggregate %d",
				routing, total, st.Requests)
		}
		if err := ns.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenNodeValidation covers the node facade's error paths.
func TestOpenNodeValidation(t *testing.T) {
	sys := newSystem(t)
	if _, err := sys.OpenNode(NodeSessionConfig{
		NPUs: 0, Scheduler: Scheduler{Policy: FCFS},
	}); err == nil {
		t.Error("zero NPUs should be rejected")
	}
	if _, err := sys.OpenNode(NodeSessionConfig{
		NPUs: 2, Scheduler: Scheduler{Policy: "NOPE"},
	}); err == nil {
		t.Error("unknown policy should be rejected")
	}
	if _, err := sys.OpenNode(NodeSessionConfig{
		NPUs: 2, Routing: Routing("teleport"), Scheduler: Scheduler{Policy: FCFS},
	}); err == nil {
		t.Error("unknown routing should be rejected")
	}
	if _, err := sys.OpenNode(NodeSessionConfig{
		NPUs: 2, Scheduler: Scheduler{Policy: FCFS}, Models: []string{"NOPE"},
	}); err == nil {
		t.Error("unknown model should be rejected")
	}
}

// TestFacadeClosedLoopSweep runs the concurrency sweep the closed-loop
// model exists for, through the facade: per seed the sweep is
// deterministic, and mean latency never decreases as the population
// grows on both the single-NPU Session and the node.
func TestFacadeClosedLoopSweep(t *testing.T) {
	sys := newSystem(t)
	sessionLat := func(clients int) float64 {
		sess, err := sys.Open(SessionConfig{
			Scheduler: Scheduler{Policy: FCFS},
			Seed:      11,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.OfferClients(clients, 2*time.Millisecond,
			200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		st, err := sess.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return st.MeanLatencyMS
	}
	if a, b := sessionLat(4), sessionLat(4); a != b {
		t.Errorf("closed-loop session not deterministic per seed: %v vs %v", a, b)
	}
	if lo, hi := sessionLat(1), sessionLat(32); lo > hi {
		t.Errorf("session latency decreased with concurrency: 1->%v 32->%v", lo, hi)
	}

	ns, err := sys.OpenNode(NodeSessionConfig{
		NPUs:      2,
		Routing:   LeastWork,
		Scheduler: Scheduler{Policy: PREMA, Preemptive: true},
		Seed:      13,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	n, err := ns.OfferClients(6, 2*time.Millisecond, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n {
		t.Errorf("node aggregate covers %d of %d realized requests", st.Requests, n)
	}
	for i, per := range st.PerNPU {
		if per.Requests == 0 {
			t.Errorf("NPU %d received no closed-loop clients", i)
		}
	}
}

// TestSessionStatsEqualFreshReplayAtEveryPoll polls a session's Stats
// while its stream grows and checks each answer against a fresh session
// given the same prefix, which simulates it from cycle 0 in one refresh:
// the live path that admits each request once and projects the work in
// flight must land on the same statistics float for float.
func TestSessionStatsEqualFreshReplayAtEveryPoll(t *testing.T) {
	sys := newSystem(t)
	srv := serving.NewServer(sys.NPU(), sys.SchedConfig(), sys.gen)
	stream, err := srv.Generate(serving.Spec{Horizon: 150 * time.Millisecond, OfferedLoad: 0.9},
		workload.RNGFor(23, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{Scheduler: Scheduler{Policy: PREMA, Preemptive: true, Mechanism: Dynamic}}
	sess, err := sys.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i, req := range stream {
		if err := sess.SubmitInstance(req); err != nil {
			t.Fatal(err)
		}
		if i%5 != 4 && i != len(stream)-1 {
			continue
		}
		got, err := sess.Stats()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sys.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range stream[:i+1] {
			if err := ref.SubmitInstance(r); err != nil {
				t.Fatal(err)
			}
		}
		want, err := ref.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("after %d requests: live %+v, fresh replay %+v", i+1, got, want)
		}
	}
}

// TestNodeSessionCountsSurviveClose pins what a closed node session
// still answers: Pending and Routed, from counts, after the streams
// they counted are released.
func TestNodeSessionCountsSurviveClose(t *testing.T) {
	sys := newSystem(t)
	ns, err := sys.OpenNode(NodeSessionConfig{
		NPUs: 3, Scheduler: Scheduler{Policy: PREMA, Preemptive: true, Mechanism: Dynamic},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.OfferLoad(2, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Stats(); err != nil {
		t.Fatal(err)
	}
	pending, routed := ns.Pending(), ns.Routed()
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	if ns.Pending() != pending || !reflect.DeepEqual(ns.Routed(), routed) {
		t.Errorf("counts moved on Close: pending %d→%d, routed %v→%v",
			pending, ns.Pending(), routed, ns.Routed())
	}
	if _, err := ns.Stats(); err == nil {
		t.Error("stats after close should error")
	}
}
