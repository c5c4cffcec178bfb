package serving

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/workload"
)

func openNode(t *testing.T, s *Server, npus int, routing cluster.RoutingPolicy,
	cfg SessionConfig) *NodeSession {
	t.Helper()
	ns, err := s.OpenNode(NodeConfig{NPUs: npus, Routing: routing, Session: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

// TestNodeRoutingMatchesBatchRoute is the router-equivalence proof the
// extraction promises: streaming one request at a time through a
// NodeSession must land every request on exactly the NPU the batch
// cluster.Route assigns it on the identical arrival stream —
// byte-identical buckets, for every routing policy.
func TestNodeRoutingMatchesBatchRoute(t *testing.T) {
	s := newServer(t)
	for _, routing := range []cluster.RoutingPolicy{
		cluster.RoundRobin, cluster.LeastQueued, cluster.LeastWork,
	} {
		stream, err := s.Generate(Spec{Horizon: 250 * time.Millisecond, OfferedLoad: 1.8},
			workload.RNGFor(31, 2))
		if err != nil {
			t.Fatal(err)
		}
		want, err := cluster.Route(cluster.Options{NPUs: 3, Routing: routing}, stream)
		if err != nil {
			t.Fatal(err)
		}
		ns := openNode(t, s, 3, routing, SessionConfig{Policy: "FCFS"})
		for _, req := range stream { // Generate emits nondecreasing arrivals
			if err := ns.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		for i, b := range ns.backends {
			if len(b.reqs) != len(want[i]) {
				t.Fatalf("%v: NPU %d holds %d requests, batch routed %d",
					routing, i, len(b.reqs), len(want[i]))
			}
			for j := range want[i] {
				if b.reqs[j] != want[i][j] {
					t.Fatalf("%v: NPU %d slot %d diverges from batch routing",
						routing, i, j)
				}
			}
		}
	}
}

// TestNodeSingleNPUMatchesSession proves the node composition adds
// nothing to the statistics pipeline: a 1-NPU node over a stream
// reports exactly what a plain Session reports for the same stream.
func TestNodeSingleNPUMatchesSession(t *testing.T) {
	s := newServer(t)
	spec := Spec{Horizon: 250 * time.Millisecond, OfferedLoad: 0.6}

	sess, err := s.Open(SessionConfig{Policy: "PREMA", Preemptive: true, Horizon: spec.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Offer(spec, workload.RNGFor(41, 1)); err != nil {
		t.Fatal(err)
	}
	want, err := sess.Drain()
	if err != nil {
		t.Fatal(err)
	}

	ns := openNode(t, s, 1, cluster.LeastWork,
		SessionConfig{Policy: "PREMA", Preemptive: true, Horizon: spec.Horizon})
	if _, err := ns.Offer(spec, workload.RNGFor(41, 1)); err != nil {
		t.Fatal(err)
	}
	got, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got.BatchStats != want {
		t.Errorf("1-NPU node diverges from plain session:\n got %+v\nwant %+v",
			got.BatchStats, want)
	}
	if len(got.PerNPU) != 1 || got.PerNPU[0] != want {
		t.Errorf("per-NPU view diverges from plain session")
	}
}

// TestNodeStatsAggregate checks the merged view's accounting: request
// and measured totals add up across NPUs, the aggregate throughput uses
// the slowest NPU's window, and every served NPU reports a view.
func TestNodeStatsAggregate(t *testing.T) {
	s := newServer(t)
	ns := openNode(t, s, 3, cluster.LeastWork, SessionConfig{Policy: "FCFS"})
	n, err := ns.Offer(Spec{Horizon: 250 * time.Millisecond, OfferedLoad: 2.0},
		workload.RNGFor(43, 7))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ns.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n {
		t.Errorf("aggregate covers %d of %d requests", st.Requests, n)
	}
	var reqs, measured int
	for i, per := range st.PerNPU {
		reqs += per.Requests
		measured += per.Measured
		if per.Requests == 0 {
			t.Errorf("NPU %d served nothing under least-work at 2.0 load", i)
		}
	}
	if reqs != st.Requests || measured != st.Measured {
		t.Errorf("per-NPU totals (%d req, %d measured) diverge from aggregate (%d, %d)",
			reqs, measured, st.Requests, st.Measured)
	}
	routed := ns.Routed()
	for i, per := range st.PerNPU {
		if routed[i] != per.Requests {
			t.Errorf("NPU %d routed %d but reports %d requests", i, routed[i], per.Requests)
		}
	}
}

// TestNodeStatsIncremental proves the per-backend memoization survives
// the composition: repeated Stats calls re-simulate nothing, and a new
// submission re-simulates only the NPU it routed to.
func TestNodeStatsIncremental(t *testing.T) {
	s := newServer(t)
	ns := openNode(t, s, 2, cluster.RoundRobin, SessionConfig{Policy: "FCFS"})
	stream, err := s.Generate(Spec{Horizon: 200 * time.Millisecond, OfferedLoad: 0.8},
		workload.RNGFor(47, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range stream[:len(stream)-1] {
		if err := ns.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ns.Stats(); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Stats(); err != nil {
		t.Fatal(err)
	}
	sims := func() int {
		total := 0
		for _, b := range ns.backends {
			total += b.Simulations()
		}
		return total
	}
	if got := sims(); got != 2 {
		t.Fatalf("want one simulation per NPU after repeated Stats, got %d", got)
	}
	if err := ns.Submit(stream[len(stream)-1]); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Stats(); err != nil {
		t.Fatal(err)
	}
	if got := sims(); got != 3 {
		t.Errorf("one new submission should re-simulate exactly one NPU: %d total runs", got)
	}
}

// TestNodeLifecycle exercises ordering, drain and close across the
// composition.
func TestNodeLifecycle(t *testing.T) {
	s := newServer(t)
	ns := openNode(t, s, 2, cluster.RoundRobin, SessionConfig{Policy: "FCFS"})
	if _, err := ns.Stats(); err == nil {
		t.Error("stats on an empty node should error")
	}
	stream, err := s.Generate(Spec{Horizon: 200 * time.Millisecond, OfferedLoad: 0.5},
		workload.RNGFor(51, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range stream {
		if err := ns.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-order arrival: the incremental router must refuse it.
	late := stream[0]
	if err := ns.Submit(late); err == nil {
		t.Error("out-of-order arrival should be rejected")
	}
	if _, err := ns.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := ns.Submit(stream[0]); err == nil {
		t.Error("submit after drain should error")
	}
	if _, err := ns.Stats(); err != nil {
		t.Error("stats after drain should still answer:", err)
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ns.Close(); err != nil {
		t.Error("close is idempotent:", err)
	}
	if _, err := ns.Stats(); err == nil {
		t.Error("stats after close should error")
	}
	if _, err := s.OpenNode(NodeConfig{NPUs: 0, Session: SessionConfig{Policy: "FCFS"}}); err == nil {
		t.Error("zero NPUs should be rejected")
	}
	if _, err := s.OpenNode(NodeConfig{NPUs: 2, Routing: cluster.RoutingPolicy(9),
		Session: SessionConfig{Policy: "FCFS"}}); err == nil {
		t.Error("unknown routing should be rejected")
	}
}

// TestNodeLateSingleRequestDrains pins the simulator's livelock bound
// against arrival offsets: a lone request arriving 3 s into the stream
// drains cleanly instead of failing with "exceeded max cycles".
func TestNodeLateSingleRequestDrains(t *testing.T) {
	s := newServer(t)
	ns := openNode(t, s, 1, cluster.LeastWork, SessionConfig{Policy: "FCFS"})
	req, err := s.gen.InstanceByName(0, "CNN-GN", 1, sched.Low,
		s.cfg.Cycles(3*time.Second), workload.RNGFor(53, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.Submit(req); err != nil {
		t.Fatal(err)
	}
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 {
		t.Errorf("drained %d requests, want 1", st.Requests)
	}
}

// TestOfferClientsSingleClientNeverQueues is the closed-loop sanity
// anchor: one client keeps at most one request in flight, so on an
// otherwise idle FCFS NPU nothing ever waits — every request's
// normalized turnaround is exactly 1.
func TestOfferClientsSingleClientNeverQueues(t *testing.T) {
	s := newServer(t)
	sess, err := s.Open(SessionConfig{Policy: "FCFS"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := sess.OfferClients(ClientSpec{
		Clients: 1, Think: time.Millisecond, Horizon: 200 * time.Millisecond,
	}, workload.RNGFor(61, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 {
		t.Fatalf("closed loop realized only %d requests", n)
	}
	st, err := sess.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n {
		t.Errorf("stats cover %d of %d realized requests", st.Requests, n)
	}
	if st.MeanNTT != 1 {
		t.Errorf("single closed-loop client queued: mean NTT %v, want exactly 1", st.MeanNTT)
	}
	if got := sess.Simulations(); got != 1 {
		t.Errorf("closed-loop Drain re-simulated: %d runs, want just the generation run", got)
	}
}

// TestOfferClientsMemoMatchesReplay proves the generation-run
// memoization is sound: forcing the session to discard the memo and
// replay the realized arrivals from scratch must land on float-identical
// statistics — the generation run IS the replay.
func TestOfferClientsMemoMatchesReplay(t *testing.T) {
	s := newServer(t)
	sess, err := s.Open(SessionConfig{Policy: "PREMA", Preemptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.OfferClients(ClientSpec{
		Clients: 6, Think: 2 * time.Millisecond, Horizon: 150 * time.Millisecond,
	}, workload.RNGFor(83, 5)); err != nil {
		t.Fatal(err)
	}
	fromGeneration, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Simulations() != 1 {
		t.Fatalf("expected the generation run only, got %d", sess.Simulations())
	}
	sess.dirty = true // discard the memo: force a from-scratch replay
	fromReplay, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Simulations() != 2 {
		t.Fatalf("forced replay did not re-simulate (%d runs)", sess.Simulations())
	}
	if fromGeneration != fromReplay {
		t.Errorf("generation memo diverges from replay:\n gen    %+v\n replay %+v",
			fromGeneration, fromReplay)
	}
}

// TestOfferClientsDeterministic proves a closed-loop sweep is
// reproducible per seed: two sessions offered the same population from
// the same RNG report float-identical statistics.
func TestOfferClientsDeterministic(t *testing.T) {
	s := newServer(t)
	run := func() BatchStats {
		sess, err := s.Open(SessionConfig{Policy: "PREMA", Preemptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.OfferClients(ClientSpec{
			Clients: 8, Think: 2 * time.Millisecond, Horizon: 150 * time.Millisecond,
		}, workload.RNGFor(67, 4)); err != nil {
			t.Fatal(err)
		}
		st, err := sess.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("closed-loop stats not deterministic per seed:\n a %+v\n b %+v", a, b)
	}
}

// TestOfferClientsLatencyMonotone sweeps the population: adding clients
// adds contention, so mean latency must not decrease from 1 to 8 to 48
// clients on the same configuration and seed.
func TestOfferClientsLatencyMonotone(t *testing.T) {
	s := newServer(t)
	lat := func(clients int) float64 {
		sess, err := s.Open(SessionConfig{Policy: "FCFS"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.OfferClients(ClientSpec{
			Clients: clients, Think: 2 * time.Millisecond, Horizon: 200 * time.Millisecond,
		}, workload.RNGFor(71, 9)); err != nil {
			t.Fatal(err)
		}
		st, err := sess.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return st.MeanLatencyMS
	}
	one, eight, fortyEight := lat(1), lat(8), lat(48)
	if !(one <= eight && eight <= fortyEight) {
		t.Errorf("latency not monotone in client count: 1->%.3f 8->%.3f 48->%.3f",
			one, eight, fortyEight)
	}
}

// TestOfferClientsValidation covers the closed-loop error paths.
func TestOfferClientsValidation(t *testing.T) {
	s := newServer(t)
	rng := workload.RNGFor(73, 1)
	batched, err := s.Open(SessionConfig{Policy: "FCFS", Window: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batched.OfferClients(ClientSpec{Clients: 2, Horizon: time.Second}, rng); err == nil {
		t.Error("closed loop on a batched session should be rejected")
	}
	sess, err := s.Open(SessionConfig{Policy: "FCFS"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.OfferClients(ClientSpec{Clients: 0, Horizon: time.Second}, rng); err == nil {
		t.Error("zero clients should be rejected")
	}
	if _, err := sess.OfferClients(ClientSpec{Clients: 2}, rng); err == nil {
		t.Error("zero horizon should be rejected")
	}
	if _, err := sess.OfferClients(ClientSpec{Clients: 2, Horizon: time.Second,
		Think: -time.Millisecond}, rng); err == nil {
		t.Error("negative think time should be rejected")
	}
}

// TestNodeOfferClients spreads a closed-loop population across a node:
// every NPU receives its pinned share and the aggregate accounts for
// every realized request.
func TestNodeOfferClients(t *testing.T) {
	s := newServer(t)
	ns := openNode(t, s, 2, cluster.RoundRobin, SessionConfig{Policy: "PREMA", Preemptive: true})
	n, err := ns.OfferClients(ClientSpec{
		Clients: 6, Think: 2 * time.Millisecond, Horizon: 150 * time.Millisecond,
	}, workload.RNGFor(79, 2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n {
		t.Errorf("aggregate covers %d of %d realized requests", st.Requests, n)
	}
	for i, per := range st.PerNPU {
		if per.Requests == 0 {
			t.Errorf("NPU %d received no closed-loop traffic for 6 clients over 2 NPUs", i)
		}
	}
}
