package serving

import (
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestSessionMatchesRun proves the incremental Session path computes the
// exact statistics the batch Run entry point reports for the same
// request stream: Generate is deterministic for a seeded RNG, so feeding
// the identical stream through Submit must land on identical floats.
func TestSessionMatchesRun(t *testing.T) {
	s := newServer(t)
	spec := Spec{Horizon: 300 * time.Millisecond, OfferedLoad: 0.6}

	want, err := s.Run(spec, sched.Spec{Policy: "PREMA", Preemptive: true, Selector: "dynamic"}, workload.RNGFor(11, 4))
	if err != nil {
		t.Fatal(err)
	}

	sess, err := s.Open(SessionConfig{
		Policy: "PREMA", Preemptive: true, Selector: "dynamic",
		Horizon: spec.Horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := s.Generate(spec, workload.RNGFor(11, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range stream {
		if err := sess.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sess.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("session stats diverge from batch Run:\n got %+v\nwant %+v", got.Stats, want)
	}
	if got.Dispatched != len(stream) {
		t.Errorf("dispatched %d of %d submitted", got.Dispatched, len(stream))
	}
}

// TestSessionIncrementalMemo proves Stats is incremental: repeated calls
// without new submissions answer from the memo, and new submissions
// trigger exactly one re-simulation.
func TestSessionIncrementalMemo(t *testing.T) {
	s := newServer(t)
	sess, err := s.Open(SessionConfig{Policy: "FCFS"})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := s.Generate(Spec{Horizon: 200 * time.Millisecond, OfferedLoad: 0.5},
		workload.RNGFor(7, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) < 4 {
		t.Fatalf("stream too short: %d", len(stream))
	}
	for _, req := range stream[:len(stream)-1] {
		if err := sess.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Stats(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stats(); err != nil {
		t.Fatal(err)
	}
	if got := sess.Simulations(); got != 1 {
		t.Errorf("repeated Stats re-simulated: %d runs", got)
	}
	if err := sess.Submit(stream[len(stream)-1]); err != nil {
		t.Fatal(err)
	}
	first, err := sess.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Simulations(); got != 2 {
		t.Errorf("want 2 simulations after new submission, got %d", got)
	}
	if first.Requests != len(stream) {
		t.Errorf("stats cover %d of %d requests", first.Requests, len(stream))
	}
}

// TestSessionLifecycle exercises the drain/close state machine and the
// open-loop Offer arrival process.
func TestSessionLifecycle(t *testing.T) {
	s := newServer(t)
	sess, err := s.Open(SessionConfig{Policy: "PREMA", Preemptive: true})
	if err != nil {
		t.Fatal(err)
	}
	n, err := sess.Offer(Spec{Horizon: 200 * time.Millisecond, OfferedLoad: 0.5},
		workload.RNGFor(3, 9))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || sess.Pending() != n {
		t.Fatalf("offered %d, pending %d", n, sess.Pending())
	}
	if _, err := sess.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(sess.reqs[0]); err == nil {
		t.Error("submit after drain should error")
	}
	if _, err := sess.Stats(); err != nil {
		t.Error("stats after drain should still answer:", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Error("close is idempotent:", err)
	}
	if _, err := sess.Stats(); err == nil {
		t.Error("stats after close should error")
	}
}

// TestSessionRejectsBadConfig covers the Open validation paths.
func TestSessionRejectsBadConfig(t *testing.T) {
	s := newServer(t)
	if _, err := s.Open(SessionConfig{Policy: "NOPE"}); err == nil {
		t.Error("unknown policy should be rejected")
	}
	if _, err := s.Open(SessionConfig{Policy: "PREMA", Preemptive: true,
		Selector: "bogus"}); err == nil {
		t.Error("unknown selector should be rejected")
	}
	if _, err := s.Open(SessionConfig{Policy: "FCFS",
		Selector: "dynamic"}); err == nil {
		t.Error("selector on a non-preemptive session should be rejected")
	}
}

// TestSessionBatchingCoalesces proves the windowed session fuses
// same-model CNN requests and reports per-member statistics.
func TestSessionBatchingCoalesces(t *testing.T) {
	s := newServer(t)
	sess, err := s.Open(SessionConfig{
		Policy: "FCFS",
		Window: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Horizon: 200 * time.Millisecond, OfferedLoad: 0.5,
		Models: []string{"CNN-AN", "CNN-GN"}, BatchSizes: []int{1},
	}
	n, err := sess.Offer(spec, workload.RNGFor(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n {
		t.Errorf("stats cover %d of %d requests", st.Requests, n)
	}
	if st.Dispatched >= n {
		t.Errorf("no coalescing: %d dispatches for %d requests", st.Dispatched, n)
	}
	if st.MeanBatch <= 1 {
		t.Errorf("mean fused batch %f not above 1", st.MeanBatch)
	}
}
