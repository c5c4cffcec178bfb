package serving

import (
	"math"
	"testing"
	"time"

	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/workload"
)

func newServer(t testing.TB) *Server {
	t.Helper()
	cfg := npu.DefaultConfig()
	gen, err := workload.NewGenerator(cfg, 0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(cfg, sched.DefaultConfig(), gen)
}

func TestGenerateValidation(t *testing.T) {
	s := newServer(t)
	rng := workload.RNGFor(1, 1)
	if _, err := s.Generate(Spec{Horizon: time.Second}, rng); err == nil {
		t.Error("zero load should be rejected")
	}
	if _, err := s.Generate(Spec{OfferedLoad: 0.5}, rng); err == nil {
		t.Error("zero horizon should be rejected")
	}
}

func TestGenerateStreamShape(t *testing.T) {
	s := newServer(t)
	spec := Spec{Horizon: 300 * time.Millisecond, OfferedLoad: 0.6}
	tasks, err := s.Generate(spec, workload.RNGFor(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) < 5 {
		t.Fatalf("only %d requests generated", len(tasks))
	}
	horizon := npu.DefaultConfig().Cycles(spec.Horizon)
	prev := int64(-1)
	for _, task := range tasks {
		if task.Arrival < 0 || task.Arrival >= horizon {
			t.Errorf("arrival %d outside [0,%d)", task.Arrival, horizon)
		}
		if task.Arrival < prev {
			t.Error("arrivals not ordered")
		}
		prev = task.Arrival
	}
}

func TestModerateLoadIsStable(t *testing.T) {
	s := newServer(t)
	spec := Spec{Horizon: 400 * time.Millisecond, OfferedLoad: 0.5}
	sts, err := s.Run(spec, []sched.Spec{{Policy: "FCFS"}}, workload.RNGFor(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	st := sts[0]
	if st.Measured == 0 || st.Requests < st.Measured {
		t.Fatalf("bad counts: %+v", st)
	}
	// At half load, queueing should be modest: mean NTT well under 10.
	if st.MeanNTT > 10 {
		t.Errorf("mean NTT %v too high for 0.5 load", st.MeanNTT)
	}
	if st.P95LatencyMS < st.MeanLatencyMS {
		t.Error("p95 below mean")
	}
	if st.P99LatencyMS < st.P95LatencyMS {
		t.Error("p99 below p95")
	}
	if st.ThroughputPerSec <= 0 {
		t.Error("non-positive throughput")
	}
}

func TestLatencyKneeGrowsWithLoad(t *testing.T) {
	s := newServer(t)
	lat := func(load float64) float64 {
		st, err := s.Run(Spec{Horizon: 400 * time.Millisecond, OfferedLoad: load},
			[]sched.Spec{{Policy: "FCFS"}}, workload.RNGFor(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		return st[0].MeanNTT
	}
	lo, hi := lat(0.3), lat(0.95)
	if hi <= lo {
		t.Errorf("near-saturation NTT (%.2f) should exceed light-load NTT (%.2f)", hi, lo)
	}
}

func TestPREMAHoldsLatencyLongerThanFCFS(t *testing.T) {
	// The serving-level restatement of the paper's claim: at high
	// offered load, PREMA's predictive preemption keeps mean NTT far
	// below NP-FCFS on the same arrival stream.
	s := newServer(t)
	spec := Spec{Horizon: 400 * time.Millisecond, OfferedLoad: 0.85}
	st, err := s.Run(spec, []sched.Spec{
		{Policy: "FCFS"},
		{Policy: "PREMA", Preemptive: true, Selector: "dynamic"},
	}, workload.RNGFor(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	fcfs, prema := st[0], st[1]
	if prema.MeanNTT >= fcfs.MeanNTT {
		t.Errorf("PREMA NTT %.2f should beat FCFS %.2f at high load",
			prema.MeanNTT, fcfs.MeanNTT)
	}
}

func TestRunRejectsUnknownPolicy(t *testing.T) {
	s := newServer(t)
	spec := Spec{Horizon: 100 * time.Millisecond, OfferedLoad: 0.5}
	if _, err := s.Run(spec, []sched.Spec{{Policy: "NOPE"}}, workload.RNGFor(6, 6)); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := s.Run(spec, []sched.Spec{{Policy: "SJF", Preemptive: true, Selector: "bogus"}}, workload.RNGFor(6, 6)); err == nil {
		t.Error("unknown selector should error")
	}
	if _, err := s.Run(spec, nil, workload.RNGFor(6, 6)); err == nil {
		t.Error("an empty scheduler list should error")
	}
}

// TestStatsSmallSamplePath covers the uniform percentile guard: with a
// single measured request every percentile collapses to that sample (no
// NaN leaks into any field), with zero measured requests statsOf errors,
// and a hand-built degenerate set falls back along P99 -> P95 -> P50 ->
// mean instead of reporting NaN anywhere.
func TestStatsSmallSamplePath(t *testing.T) {
	s := newServer(t)

	// One measured sample: every percentile equals it.
	one := sampleSet{requests: 3, dispatched: 3, latencies: []float64{7.5},
		ntts: []float64{2.0}, makespan: 1 << 20}
	st, err := s.statsOf(&one, new([]float64))
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"mean": st.MeanLatencyMS, "p50": st.P50LatencyMS,
		"p95": st.P95LatencyMS, "p99": st.P99LatencyMS,
	} {
		if v != 7.5 {
			t.Errorf("single-sample %s = %v, want 7.5", name, v)
		}
	}
	if math.IsNaN(st.SLAViolations4x) || st.SLAViolations4x != 0 {
		t.Errorf("single-sample SLA violations = %v, want 0", st.SLAViolations4x)
	}

	// No measured samples: an error, never NaN-laden statistics.
	if _, err := s.statsOf(&sampleSet{requests: 2, dispatched: 2}, new([]float64)); err == nil {
		t.Error("empty measured set should error")
	}

	// The guard chain itself: each level falls back to the next coarser
	// statistic.
	if got := guardPercentile(math.NaN(), 4.2); got != 4.2 {
		t.Errorf("guardPercentile(NaN) = %v, want fallback 4.2", got)
	}
	if got := guardPercentile(9.9, 4.2); got != 9.9 {
		t.Errorf("guardPercentile(9.9) = %v, want 9.9", got)
	}
}

// TestSteadyStatsTinyWarmupSurvivors drives the small-sample path end to
// end: a warm-up cut that leaves very few measured requests must still
// produce finite, ordered percentiles.
func TestSteadyStatsTinyWarmupSurvivors(t *testing.T) {
	s := newServer(t)
	tasks, err := s.Generate(Spec{Horizon: 120 * time.Millisecond, OfferedLoad: 0.4},
		workload.RNGFor(21, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.simulate(sched.Spec{Policy: "FCFS"}, workload.Entries(tasks))
	if err != nil {
		t.Fatal(err)
	}
	// Cut just below the latest arrival: exactly the stragglers survive.
	var latest int64
	for _, task := range res.Tasks {
		if task.Arrival > latest {
			latest = task.Arrival
		}
	}
	var sm sampleSet
	var sorted []float64
	s.collectTasks(&sm, res, latest) // the last arrival alone survives
	st, err := s.statsOf(&sm, &sorted)
	if err != nil {
		t.Fatal(err)
	}
	if st.Measured < 1 || st.Measured > 3 {
		t.Fatalf("expected a tiny survivor set, got %d", st.Measured)
	}
	for name, v := range map[string]float64{
		"mean": st.MeanLatencyMS, "p50": st.P50LatencyMS,
		"p95": st.P95LatencyMS, "p99": st.P99LatencyMS,
	} {
		if math.IsNaN(v) || v <= 0 {
			t.Errorf("tiny-sample %s = %v, want finite positive", name, v)
		}
	}
	if st.P50LatencyMS > st.P95LatencyMS || st.P95LatencyMS > st.P99LatencyMS {
		t.Errorf("percentiles out of order: p50=%v p95=%v p99=%v",
			st.P50LatencyMS, st.P95LatencyMS, st.P99LatencyMS)
	}
}

// TestStatsOfLeavesSamplesIntact locks in the no-aliasing contract
// behind the statecopy lint rule: sampleSet travels by pointer, so a
// callee that reordered or grew the latency slices in place would
// corrupt the caller's memoized samples (the session memo derives
// statistics from the same set repeatedly). statsOf must treat the set
// as read-only.
func TestStatsOfLeavesSamplesIntact(t *testing.T) {
	s := newServer(t)
	sm := sampleSet{
		requests: 4, dispatched: 4,
		latencies: []float64{9.0, 1.0, 5.0, 3.0},
		ntts:      []float64{3.0, 1.0, 2.0, 1.5},
		makespan:  1 << 20,
	}
	want := append([]float64(nil), sm.latencies...)
	wantNTT := append([]float64(nil), sm.ntts...)
	if _, err := s.statsOf(&sm, new([]float64)); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if sm.latencies[i] != want[i] {
			t.Fatalf("statsOf reordered latencies in place: %v (want %v)", sm.latencies, want)
		}
		if sm.ntts[i] != wantNTT[i] {
			t.Fatalf("statsOf reordered ntts in place: %v (want %v)", sm.ntts, wantNTT)
		}
	}
}
