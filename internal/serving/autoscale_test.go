package serving

// autoscale_test.go locks in the autoscaling node session's contracts:
// the static no-op scaler is output-identical to no scaler at all, a
// threshold scaler under a ramped load grows and shrinks the fleet and
// beats the fixed-minimum fleet's SLO-violation fraction, and the whole
// pipeline is deterministic per seed.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// ramp is the canonical diurnal profile the tests drive: a climb to 3x
// a single NPU's capacity and back down, in five equal segments.
var ramp = []float64{0.4, 1.5, 3.0, 1.5, 0.4}

const rampSegment = 40 * time.Millisecond

// rampHorizon is the reference horizon for warm-up cuts across the
// whole ramp.
const rampHorizon = 200 * time.Millisecond

// rampModels is the interactive mix the autoscale tests serve: the
// light models (sub-3ms isolated at batch 1), so a 40ms segment holds
// tens of requests and a single-digit-millisecond SLO is meaningful.
// The heavy translation/ASR RNNs would make every SLO unattainable at
// batch 1 regardless of fleet size.
var rampModels = []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"}

func offerRamp(t *testing.T, ns *NodeSession, seed uint64) int {
	t.Helper()
	n, err := ns.OfferRamp(Spec{Horizon: rampSegment, Models: rampModels,
		BatchSizes: []int{1}}, ramp, workload.RNGFor(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestStaticScalerByteIdentical is the acceptance anchor: a node with
// the static no-op scaler attached must produce byte-identical output
// to a scaler-less node over the identical stream — the autoscale tick
// machinery adds nothing but the (empty) timeline.
func TestStaticScalerByteIdentical(t *testing.T) {
	s := newServer(t)
	session := SessionConfig{Policy: "PREMA", Preemptive: true, Horizon: rampHorizon}

	plain, err := s.OpenNode(NodeConfig{NPUs: 2, Routing: cluster.LeastWork, Session: session})
	if err != nil {
		t.Fatal(err)
	}
	offerRamp(t, plain, 11)
	want, err := plain.Drain()
	if err != nil {
		t.Fatal(err)
	}

	scaled, err := s.OpenNode(NodeConfig{
		NPUs: 2, Routing: cluster.LeastWork, Session: session,
		Autoscale: &AutoscaleConfig{Scaler: "static", SLO: 8 * time.Millisecond,
			MinNPUs: 1, MaxNPUs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	offerRamp(t, scaled, 11)
	got, err := scaled.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if got.BatchStats != want.BatchStats {
		t.Errorf("static scaler diverges from scaler-less run:\n got  %+v\n want %+v",
			got.BatchStats, want.BatchStats)
	}
	if len(got.PerNPU) != len(want.PerNPU) {
		t.Fatalf("static scaler changed the fleet: %d vs %d backends",
			len(got.PerNPU), len(want.PerNPU))
	}
	for i := range want.PerNPU {
		if got.PerNPU[i] != want.PerNPU[i] {
			t.Errorf("NPU %d diverges:\n got  %+v\n want %+v", i, got.PerNPU[i], want.PerNPU[i])
		}
	}
	if want.Scaling != nil {
		t.Error("scaler-less run reports a scaling timeline")
	}
	if got.Scaling == nil {
		t.Fatal("static-scaled run reports no scaling timeline")
	}
	if len(got.Scaling.Events) != 1 || got.Scaling.Events[0].NPUs != 2 {
		t.Errorf("static scaler timeline = %+v, want only the initial anchor", got.Scaling.Events)
	}
	if got.Scaling.PeakNPUs != 2 || got.Scaling.MeanNPUs != 2 {
		t.Errorf("static fleet reports peak %d / mean %.2f, want 2 / 2",
			got.Scaling.PeakNPUs, got.Scaling.MeanNPUs)
	}
}

// TestThresholdScalerTracksRamp is the second acceptance anchor: under
// the ramp, the queue-depth scaler must grow the fleet into the peak,
// shrink it back down the far side, and end with a lower SLO-violation
// fraction than the fleet pinned at the minimum size.
func TestThresholdScalerTracksRamp(t *testing.T) {
	s := newServer(t)
	const slo = 6 * time.Millisecond
	session := SessionConfig{Policy: "FCFS", Horizon: rampHorizon}

	scaled, err := s.OpenNode(NodeConfig{
		NPUs: 1, Routing: cluster.LeastWork, Session: session,
		Autoscale: &AutoscaleConfig{Scaler: "queue-depth", SLO: slo,
			MinNPUs: 1, MaxNPUs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	offerRamp(t, scaled, 13)
	got, err := scaled.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got.Scaling == nil {
		t.Fatal("no scaling timeline")
	}
	if got.Scaling.PeakNPUs <= 1 {
		t.Fatalf("fleet never grew under a 3x-capacity peak: %+v", got.Scaling.Events)
	}
	var grew, shrank bool
	for _, e := range got.Scaling.Events {
		if e.Delta > 0 {
			grew = true
		}
		if e.Delta < 0 {
			shrank = true
		}
	}
	if !grew || !shrank {
		t.Errorf("fleet did not both rise and fall with the load: %+v", got.Scaling.Events)
	}
	if last := got.Scaling.Events[len(got.Scaling.Events)-1]; last.NPUs >= got.Scaling.PeakNPUs {
		t.Errorf("fleet never came back down from its peak of %d: %+v",
			got.Scaling.PeakNPUs, got.Scaling.Events)
	}

	// The fixed-minimum fleet over the identical ramp: same stream, no
	// elasticity. The scaled fleet must violate the SLO less.
	fixed, err := s.OpenNode(NodeConfig{
		NPUs: 1, Routing: cluster.LeastWork, Session: session,
		Autoscale: &AutoscaleConfig{Scaler: "static", SLO: slo, MinNPUs: 1, MaxNPUs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	offerRamp(t, fixed, 13)
	base, err := fixed.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got.Scaling.SLOViolationFrac >= base.Scaling.SLOViolationFrac {
		t.Errorf("scaling did not reduce SLO violations: scaled %.3f vs fixed-minimum %.3f",
			got.Scaling.SLOViolationFrac, base.Scaling.SLOViolationFrac)
	}
}

// TestTargetLatencyScalerTracksRamp runs the PI scaler over the same
// ramp: it must also grow into the peak and improve on the
// fixed-minimum fleet.
func TestTargetLatencyScalerTracksRamp(t *testing.T) {
	s := newServer(t)
	session := SessionConfig{Policy: "FCFS", Horizon: rampHorizon}
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 1, Routing: cluster.LeastWork, Session: session,
		Autoscale: &AutoscaleConfig{Scaler: "target-latency", SLO: 6 * time.Millisecond,
			MinNPUs: 1, MaxNPUs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	offerRamp(t, ns, 13)
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Scaling.PeakNPUs <= 1 {
		t.Errorf("PI fleet never grew under a 3x-capacity peak: %+v", st.Scaling.Events)
	}
	if st.Scaling.MeanNPUs <= 1 || st.Scaling.MeanNPUs > 4 {
		t.Errorf("implausible time-weighted mean fleet %.2f", st.Scaling.MeanNPUs)
	}
}

// TestAutoscaleDeterministic proves an autoscaled run is reproducible:
// identical seeds give identical statistics and an identical event
// timeline.
func TestAutoscaleDeterministic(t *testing.T) {
	s := newServer(t)
	run := func() NodeStats {
		ns, err := s.OpenNode(NodeConfig{
			NPUs: 1, Routing: cluster.LeastQueued,
			Session: SessionConfig{Policy: "PREMA", Preemptive: true, Horizon: rampHorizon},
			Autoscale: &AutoscaleConfig{Scaler: "queue-depth", SLO: 8 * time.Millisecond,
				MinNPUs: 1, MaxNPUs: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		offerRamp(t, ns, 17)
		st, err := ns.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.BatchStats != b.BatchStats {
		t.Errorf("autoscaled stats not deterministic:\n a %+v\n b %+v", a.BatchStats, b.BatchStats)
	}
	if len(a.Scaling.Events) != len(b.Scaling.Events) {
		t.Fatalf("event timelines diverge: %d vs %d events",
			len(a.Scaling.Events), len(b.Scaling.Events))
	}
	for i := range a.Scaling.Events {
		if a.Scaling.Events[i] != b.Scaling.Events[i] {
			t.Errorf("event %d diverges: %+v vs %+v", i, a.Scaling.Events[i], b.Scaling.Events[i])
		}
	}
}

// TestRetiredBackendSamplesFold proves a scale-down loses nothing: the
// aggregate request count covers every submitted request, including
// those served by backends that were retired mid-stream.
func TestRetiredBackendSamplesFold(t *testing.T) {
	s := newServer(t)
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 1, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "FCFS", Horizon: rampHorizon},
		Autoscale: &AutoscaleConfig{Scaler: "queue-depth", SLO: 6 * time.Millisecond,
			MinNPUs: 1, MaxNPUs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := offerRamp(t, ns, 13)
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n {
		t.Errorf("aggregate covers %d of %d requests after scale events", st.Requests, n)
	}
	var perNPU int
	for _, per := range st.PerNPU {
		perNPU += per.Requests
	}
	if perNPU != n {
		t.Errorf("per-NPU views cover %d of %d requests", perNPU, n)
	}
	if len(st.PerNPU) != len(ns.Routed()) {
		t.Errorf("PerNPU (%d) and Routed (%d) disagree on fleet size",
			len(st.PerNPU), len(ns.Routed()))
	}
}

// TestStatsSeesTimelineWithoutArrival pins the node-level stats memo
// to the fleet timeline: an operator scale or drain between two Stats
// calls, with no submission in between, must reach the second call's
// Scaling.Events and MeanNPUs, exactly as a memo-free derivation does.
func TestStatsSeesTimelineWithoutArrival(t *testing.T) {
	for _, tc := range []struct {
		name  string
		act   func(*NodeSession) error
		delta int
	}{
		{"scale", func(ns *NodeSession) error { return ns.ScaleTo(4) }, +2},
		{"drain", func(ns *NodeSession) error { return ns.RetireBackend(0) }, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t)
			ns, err := s.OpenNode(NodeConfig{
				NPUs: 2, Routing: cluster.LeastWork,
				Session: SessionConfig{Policy: "FCFS", Horizon: rampHorizon},
				Autoscale: &AutoscaleConfig{Scaler: "static", SLO: 8 * time.Millisecond,
					MinNPUs: 1, MaxNPUs: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			offerRamp(t, ns, 5)
			before, err := ns.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.act(ns); err != nil {
				t.Fatal(err)
			}
			after, err := ns.Stats()
			if err != nil {
				t.Fatal(err)
			}
			events := after.Scaling.Events
			if len(events) != len(before.Scaling.Events)+1 || events[len(events)-1].Delta != tc.delta {
				t.Fatalf("scaling events after %s: %+v, want the %d before plus one of delta %+d",
					tc.name, events, len(before.Scaling.Events), tc.delta)
			}
			if after.Scaling.MeanNPUs == before.Scaling.MeanNPUs {
				t.Errorf("MeanNPUs %.4f unchanged by a %s before the makespan", after.Scaling.MeanNPUs, tc.name)
			}
			ns.statsValid = false
			fresh, err := ns.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after, fresh) {
				t.Errorf("memoized stats after %s diverge from a fresh derivation:\n memo  %+v\n fresh %+v",
					tc.name, after.Scaling, fresh.Scaling)
			}
		})
	}
}

// TestAutoscaleValidation covers the configuration error paths and the
// closed-loop exclusion.
func TestAutoscaleValidation(t *testing.T) {
	s := newServer(t)
	session := SessionConfig{Policy: "FCFS"}
	open := func(a AutoscaleConfig, npus int) error {
		_, err := s.OpenNode(NodeConfig{NPUs: npus, Session: session, Autoscale: &a})
		return err
	}
	if err := open(AutoscaleConfig{SLO: time.Millisecond}, 1); err == nil {
		t.Error("empty scaler label should be rejected")
	}
	if err := open(AutoscaleConfig{Scaler: "nope", SLO: time.Millisecond}, 1); err == nil {
		t.Error("unknown scaler should be rejected")
	}
	if err := open(AutoscaleConfig{Scaler: "static"}, 1); err == nil {
		t.Error("missing SLO should be rejected")
	}
	if err := open(AutoscaleConfig{Scaler: "static", SLO: time.Millisecond,
		MinNPUs: 4, MaxNPUs: 2}, 4); err == nil {
		t.Error("max below min should be rejected")
	}
	if err := open(AutoscaleConfig{Scaler: "static", SLO: time.Millisecond,
		MinNPUs: 2, MaxNPUs: 4}, 1); err == nil {
		t.Error("initial fleet outside the bounds should be rejected")
	}
	if err := open(AutoscaleConfig{Scaler: "static", SLO: time.Millisecond,
		Tick: -time.Millisecond}, 1); err == nil {
		t.Error("negative tick should be rejected")
	}
	if err := open(AutoscaleConfig{Scaler: "static", SLO: time.Millisecond,
		MinNPUs: -1}, 1); err == nil {
		t.Error("negative fleet minimum should be rejected")
	}

	ns, err := s.OpenNode(NodeConfig{NPUs: 1, Session: session,
		Autoscale: &AutoscaleConfig{Scaler: "static", SLO: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ns.OfferClients(ClientSpec{Clients: 2, Horizon: time.Second},
		workload.RNGFor(1, 1)); err == nil {
		t.Error("closed-loop clients on an autoscaling node should be rejected")
	}
}

// TestOfferRampChaining proves ramp segments chain in nondecreasing
// arrival order on a plain (scaler-less) node and cover the whole
// profile span.
func TestOfferRampChaining(t *testing.T) {
	s := newServer(t)
	ns, err := s.OpenNode(NodeConfig{NPUs: 2, Routing: cluster.RoundRobin,
		Session: SessionConfig{Policy: "FCFS", Horizon: rampHorizon}})
	if err != nil {
		t.Fatal(err)
	}
	n := offerRamp(t, ns, 19)
	if n == 0 {
		t.Fatal("ramp produced no requests")
	}
	// The last segment's arrivals must land in the final window: the
	// session clock advanced across segment boundaries.
	if ns.lastArrival < s.cfg.Cycles(4*rampSegment) {
		t.Errorf("ramp never reached its final segment (last arrival %d)", ns.lastArrival)
	}
	if _, err := ns.OfferRamp(Spec{Horizon: rampSegment}, nil,
		workload.RNGFor(1, 1)); err == nil {
		t.Error("empty ramp should be rejected")
	}
	if _, err := ns.OfferRamp(Spec{}, ramp, workload.RNGFor(1, 1)); err == nil {
		t.Error("zero segment length should be rejected")
	}
	if _, err := ns.OfferRamp(Spec{Horizon: rampSegment},
		[]float64{1.0, -0.5}, workload.RNGFor(1, 1)); err == nil {
		t.Error("negative load should be rejected")
	}
}

// TestOfferRampIdleTrough proves a zero-load segment is an idle window,
// not an error: arrivals resume in the segment after the trough.
func TestOfferRampIdleTrough(t *testing.T) {
	s := newServer(t)
	ns, err := s.OpenNode(NodeConfig{NPUs: 1, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "FCFS", Horizon: rampHorizon}})
	if err != nil {
		t.Fatal(err)
	}
	n, err := ns.OfferRamp(Spec{Horizon: rampSegment, Models: rampModels,
		BatchSizes: []int{1}}, []float64{0, 1.0, 0, 1.0}, workload.RNGFor(23, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("trough ramp produced no requests")
	}
	// The final segment's arrivals must land past the second trough.
	if ns.lastArrival < s.cfg.Cycles(3*rampSegment) {
		t.Errorf("ramp never resumed after the trough (last arrival %d)", ns.lastArrival)
	}
}
