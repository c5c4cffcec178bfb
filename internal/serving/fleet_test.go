package serving

// fleet_test.go locks in the heterogeneous-fleet surface: template
// parsing, clock derating against the base config, largest-remainder
// apportionment, the D'Hondt tier choice on scale-up, and the node
// session mechanics (tiered backend construction, chaos slowdowns
// stacking on a tier's derate, scale-ups tracking the template weights,
// fused batches and closed-loop clients at their backend's speed, and a
// tier's speed costing no per-request copies).

import (
	"math"
	"testing"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func TestParseFleetTemplate(t *testing.T) {
	specs, err := ParseFleetTemplate("70%:fast,30%:slow")
	if err != nil {
		t.Fatal(err)
	}
	want := []TierSpec{{Name: "fast", Weight: 70, Factor: 1}, {Name: "slow", Weight: 30, Factor: 2}}
	if len(specs) != len(want) {
		t.Fatalf("got %d tiers, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("tier %d = %+v, want %+v", i, specs[i], want[i])
		}
	}

	specs, err = ParseFleetTemplate(" 50%:fast , 50%:ancient@4 ")
	if err != nil {
		t.Fatal(err)
	}
	if specs[1] != (TierSpec{Name: "ancient", Weight: 50, Factor: 4}) {
		t.Errorf("custom tier = %+v", specs[1])
	}

	for _, bad := range []string{
		"",                     // empty
		"fast",                 // no weight
		"70:fast,30:slow",      // missing %
		"x%:fast,100%:slow",    // non-numeric weight
		"0%:fast,100%:slow",    // zero weight
		"70%:fast,40%:slow",    // weights exceed 100
		"50%:fast,40%:slow",    // weights under 100
		"50%:fast,50%:fast",    // duplicate tier
		"50%:fast,50%:turbo",   // unknown tier without factor
		"50%:fast,50%:old@0.5", // factor under 1
		"50%:fast,50%:@2",      // empty name
	} {
		if _, err := ParseFleetTemplate(bad); err == nil {
			t.Errorf("template %q should be rejected", bad)
		}
	}
}

func TestFleetFromTemplateDeratesClock(t *testing.T) {
	base := npu.DefaultConfig()
	tiers, err := FleetFromTemplate(base, "70%:fast,30%:slow")
	if err != nil {
		t.Fatal(err)
	}
	if tiers[0].NPU != base {
		t.Errorf("fast tier config differs from base: %+v", tiers[0].NPU)
	}
	if got, want := tiers[1].NPU.FreqHz, base.FreqHz/2; got != want {
		t.Errorf("slow tier clock = %v, want %v", got, want)
	}
	norm := tiers[1].NPU
	norm.FreqHz = base.FreqHz
	if norm != base {
		t.Errorf("slow tier differs from base beyond the clock: %+v", tiers[1].NPU)
	}
}

func TestApportionFleet(t *testing.T) {
	cases := []struct {
		weights []int
		n       int
		want    []int
	}{
		{[]int{70, 30}, 10, []int{7, 3}},
		{[]int{70, 30}, 3, []int{2, 1}}, // remainders 10 vs 90
		{[]int{70, 30}, 1, []int{1, 0}}, // remainder 70 vs 30
		{[]int{50, 50}, 5, []int{3, 2}}, // tie goes to the earlier tier
		{[]int{34, 33, 33}, 4, []int{2, 1, 1}},
		{[]int{100}, 6, []int{6}},
	}
	for _, tc := range cases {
		got := apportionFleet(tc.weights, tc.n)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("apportion(%v, %d) = %v, want %v", tc.weights, tc.n, got, tc.want)
				break
			}
		}
	}
}

func TestPickTierTracksWeights(t *testing.T) {
	weights := []int{70, 30}
	counts := []int{0, 0}
	for i := 0; i < 10; i++ {
		counts[autoscale.PickTier(weights, counts)]++
	}
	if counts[0] != 7 || counts[1] != 3 {
		t.Errorf("D'Hondt fill of 10 = %v, want [7 3]", counts)
	}
	// A tier knocked below its share by failures is refilled first.
	if got := autoscale.PickTier([]int{50, 50}, []int{5, 1}); got != 1 {
		t.Errorf("depleted tier not preferred: picked %d", got)
	}
	// Ties go to the earliest tier.
	if got := autoscale.PickTier([]int{50, 50}, []int{2, 2}); got != 0 {
		t.Errorf("tie should pick tier 0, picked %d", got)
	}
}

func TestOpenNodeHeterogeneousFleet(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "70%:fast,30%:slow")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 10, Routing: cluster.LeastWork, Fleet: tiers,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true, Horizon: rampHorizon},
	})
	if err != nil {
		t.Fatal(err)
	}
	views := ns.Fleet()
	for i, v := range views {
		wantTier, wantSpeed := "fast", 1.0
		if i >= 7 {
			wantTier, wantSpeed = "slow", 2.0
		}
		if v.Tier != wantTier || v.Speed != wantSpeed {
			t.Errorf("backend %d: tier %q speed %v, want %q %v", i, v.Tier, v.Speed, wantTier, wantSpeed)
		}
	}
	// An idle tiered fleet routes the first request to a fast backend:
	// least-work compares normalized completion time, and a slow
	// backend would finish the same work twice as late.
	if _, err := ns.Offer(Spec{Horizon: rampSegment, OfferedLoad: 0.3,
		Models: rampModels, BatchSizes: []int{1}}, workload.RNGFor(21, 0)); err != nil {
		t.Fatal(err)
	}
	routed := ns.Routed()
	slowShare := 0
	for i := 7; i < 10; i++ {
		slowShare += routed[i]
	}
	if routed[0] == 0 {
		t.Error("fast backend 0 served nothing at light load")
	}
	if slowShare > ns.Pending()/2 {
		t.Errorf("slow tier served %d of %d requests at light load", slowShare, ns.Pending())
	}
}

func TestOpenNodeFleetValidation(t *testing.T) {
	s := newServer(t)
	base := npu.DefaultConfig()
	session := SessionConfig{Policy: "FCFS", Horizon: rampHorizon}
	open := func(tiers []Tier) error {
		_, err := s.OpenNode(NodeConfig{NPUs: 4, Routing: cluster.LeastQueued,
			Fleet: tiers, Session: session})
		return err
	}

	overclocked := base
	overclocked.FreqHz *= 2
	foreign := base
	foreign.UBUFBytes *= 2
	half := base
	half.FreqHz /= 2
	for name, tiers := range map[string][]Tier{
		"weights not 100":  {{Name: "fast", Weight: 60, NPU: base}, {Name: "slow", Weight: 30, NPU: half}},
		"zero weight":      {{Name: "fast", Weight: 100, NPU: base}, {Name: "slow", Weight: 0, NPU: half}},
		"duplicate name":   {{Name: "fast", Weight: 50, NPU: base}, {Name: "fast", Weight: 50, NPU: half}},
		"empty name":       {{Name: "", Weight: 100, NPU: base}},
		"clock above base": {{Name: "hot", Weight: 100, NPU: overclocked}},
		"non-clock change": {{Name: "big", Weight: 100, NPU: foreign}},
	} {
		if open(tiers) == nil {
			t.Errorf("%s: fleet should be rejected", name)
		}
	}
	if err := open([]Tier{{Name: "fast", Weight: 50, NPU: base}, {Name: "slow", Weight: 50, NPU: half}}); err != nil {
		t.Errorf("valid fleet rejected: %v", err)
	}
}

// TestTieredChaosStacksOnDerate proves chaos slowdowns are relative to
// the tier's nominal speed: slowing a factor-2 tier by 2 serves at 4x,
// restore returns to the tier's 2x (not to 1), and a backend at its
// tier nominal is "not slowed".
func TestTieredChaosStacksOnDerate(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "50%:fast,50%:slow")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.OpenNode(NodeConfig{NPUs: 4, Routing: cluster.LeastWork, Fleet: tiers,
		Session: SessionConfig{Policy: "FCFS", Horizon: rampHorizon}})
	if err != nil {
		t.Fatal(err)
	}
	// Backends 0-1 are fast, 2-3 slow (block apportionment).
	if err := ns.ScheduleCycle(0, NodeOp{Kind: SlowNPU, NPU: 2, Factor: 2}); err != nil {
		t.Fatal(err)
	}
	if err := ns.AdvanceToCycle(1); err != nil {
		t.Fatal(err)
	}
	if got := ns.Fleet()[2].Speed; got != 4 {
		t.Errorf("slowed slow-tier backend speed = %v, want 4", got)
	}
	if err := ns.ScheduleCycle(1, NodeOp{Kind: RestoreNPU, NPU: 2}); err != nil {
		t.Fatal(err)
	}
	if err := ns.AdvanceToCycle(2); err != nil {
		t.Fatal(err)
	}
	if got := ns.Fleet()[2].Speed; got != 2 {
		t.Errorf("restored slow-tier backend speed = %v, want the tier nominal 2", got)
	}
	// A backend at its tier nominal is not slowed, whatever its derate.
	if err := ns.ScheduleCycle(2, NodeOp{Kind: RestoreNPU, NPU: 3}); err != nil {
		t.Fatal(err)
	}
	if err := ns.AdvanceToCycle(3); err == nil {
		t.Error("restore of a backend at tier-nominal speed should fail")
	}
}

// TestTieredScaleToFollowsWeights drives a manual scale-up on a 70/30
// fleet and checks the D'Hondt tier choice lands the grown fleet on the
// template's proportions.
func TestTieredScaleToFollowsWeights(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "70%:fast,30%:slow")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.OpenNode(NodeConfig{NPUs: 2, Routing: cluster.LeastQueued, Fleet: tiers,
		Session: SessionConfig{Policy: "FCFS", Horizon: rampHorizon}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.ScaleTo(10); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, v := range ns.Fleet() {
		counts[v.Tier]++
	}
	if counts["fast"] != 7 || counts["slow"] != 3 {
		t.Errorf("grown fleet = %v, want 7 fast / 3 slow", counts)
	}
}

// TestTieredAutoscaleRun drives the full ramp over a tiered autoscaled
// fleet: the run must complete deterministically and every scaled-up
// backend must belong to a template tier.
func TestTieredAutoscaleRun(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "70%:fast,30%:slow")
	if err != nil {
		t.Fatal(err)
	}
	open := func() *NodeSession {
		ns, err := s.OpenNode(NodeConfig{
			NPUs: 2, Routing: cluster.LeastWork, Fleet: tiers,
			Session: SessionConfig{Policy: "PREMA", Preemptive: true, Horizon: rampHorizon},
			Autoscale: &AutoscaleConfig{Scaler: "queue-depth", SLO: 6 * time.Millisecond,
				MinNPUs: 1, MaxNPUs: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	ns := open()
	offerRamp(t, ns, 31)
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Scaling == nil || st.Scaling.PeakNPUs <= 2 {
		t.Fatalf("tiered ramp did not scale up: %+v", st.Scaling)
	}
	for _, v := range ns.Fleet() {
		if v.Tier != "fast" && v.Tier != "slow" {
			t.Errorf("backend %d has tier %q outside the template", v.NPU, v.Tier)
		}
	}
	// Determinism: the identical run replays to identical stats.
	ns2 := open()
	offerRamp(t, ns2, 31)
	st2, err := ns2.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchStats != st2.BatchStats {
		t.Errorf("tiered autoscaled run is not deterministic:\n %+v\n %+v", st.BatchStats, st2.BatchStats)
	}
}

// TestFusedBatchRunsAtBackendSpeed: on a slow-tier NPU a fused batch
// runs at the tier's factor, as a single request there does.
func TestFusedBatchRunsAtBackendSpeed(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "100%:slow")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.OpenNode(NodeConfig{NPUs: 1, Routing: cluster.RoundRobin, Fleet: tiers,
		Session: SessionConfig{Policy: "FCFS", Window: 2 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	// Six batch-1 requests inside one window fuse into one dispatch that
	// arrives with the last of them and runs alone on the NPU.
	at := s.cfg.Cycles(time.Millisecond)
	for k := 0; k < 6; k++ {
		req, err := s.gen.InstanceByName(k, "CNN-AN", 1, sched.Low, at+int64(k), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ns.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	fused, err := s.gen.InstanceByName(0, "CNN-AN", 6, sched.Low, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	service := npu.NewScaledExecution(fused.Program, 2).TotalCycles()
	// Member k waits 5-k cycles for the window to close, 2.5 on average.
	want := s.cfg.Millis(service) + s.cfg.Millis(5)/2
	if st.Dispatched != 1 || st.Measured != 6 {
		t.Fatalf("%d dispatches, %d measured; want one fused dispatch of 6", st.Dispatched, st.Measured)
	}
	if math.Abs(st.MeanLatencyMS-want) > 1e-9 {
		t.Errorf("fused batch mean latency %.6fms, want %.6fms (twice the nominal %.6fms service)",
			st.MeanLatencyMS, want, s.cfg.Millis(fused.Program.TotalCycles))
	}
}

// TestTieredClientsRunAtTierSpeed: closed-loop clients pinned to a slow
// tier run at its speed, in the generation run and in every replay.
func TestTieredClientsRunAtTierSpeed(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "70%:fast,30%:slow")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.OpenNode(NodeConfig{NPUs: 4, Routing: cluster.LeastWork, Fleet: tiers,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true}, Trace: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.OfferClients(ClientSpec{
		Clients: 8, Think: time.Millisecond, Horizon: 60 * time.Millisecond,
	}, workload.RNGFor(16, 1)); err != nil {
		t.Fatal(err)
	}
	checkReplay(t, ns, "tiered clients")
	slow := 0
	for i, b := range ns.backends {
		f := ns.speed[i]
		for _, e := range b.entries(0) {
			want := npu.NewScaledExecution(e.Exec.Program(), f).TotalCycles()
			if e.IsolatedCycles != want {
				t.Fatalf("NPU %d (x%v) request %d: isolated %d cycles, want %d",
					i, f, e.ID, e.IsolatedCycles, want)
			}
			if f > 1 {
				slow++
			}
		}
	}
	if slow == 0 {
		t.Fatal("no client request ran on the slow tier")
	}
}

// TestTieredSubmitAllocs pins a tier's speed to a per-backend cost:
// routing a stream through a 70/30 tiered node allocates no more objects
// than through a homogeneous node of the same size, plus a constant per
// backend (the slow backend's factor column).
func TestTieredSubmitAllocs(t *testing.T) {
	s := newServer(t)
	stream, err := s.Generate(Spec{
		Horizon: 512 * time.Millisecond, OfferedLoad: 4,
		Models: []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"}, BatchSizes: []int{1},
	}, workload.RNGFor(0xBE7C4, 1))
	if err != nil {
		t.Fatal(err)
	}
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "70%:fast,30%:slow")
	if err != nil {
		t.Fatal(err)
	}
	submit := func(fleet []Tier) float64 {
		return testing.AllocsPerRun(5, func() {
			ns, err := s.OpenNode(NodeConfig{NPUs: 4, Routing: cluster.LeastWork, Fleet: fleet,
				Session: SessionConfig{Policy: "FCFS"}})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range stream {
				if err := ns.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	const perBackend = 16
	homogeneous, tiered := submit(nil), submit(tiers)
	if tiered > homogeneous+4*perBackend {
		t.Errorf("%d requests: tiered node %.0f allocs, homogeneous %.0f; want at most %d more",
			len(stream), tiered, homogeneous, 4*perBackend)
	}
	t.Logf("%d requests: tiered %.0f allocs, homogeneous %.0f", len(stream), tiered, homogeneous)
}
