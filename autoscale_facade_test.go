package prema_test

// autoscale_facade_test.go exercises the public autoscaling surface:
// AutoscaleConfig validation at OpenNode, the ramp-driven scaling
// timeline, and a custom scaler registered through RegisterScaler
// participating exactly like a builtin.

import (
	"math"
	"testing"
	"time"

	prema "repro"
)

var rampModels = []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"}

func openAutoscaled(t *testing.T, sys *prema.System, scaler string) *prema.NodeSession {
	t.Helper()
	ns, err := sys.OpenNode(prema.NodeSessionConfig{
		NPUs:      1,
		Routing:   prema.LeastWork,
		Scheduler: prema.Scheduler{Policy: prema.FCFS},
		Models:    rampModels,
		Horizon:   200 * time.Millisecond,
		Seed:      21,
		Autoscale: &prema.AutoscaleConfig{
			Scaler:  scaler,
			SLO:     6 * time.Millisecond,
			MinNPUs: 1,
			MaxNPUs: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

func TestNodeSessionAutoscaleTimeline(t *testing.T) {
	sys, err := prema.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	ns := openAutoscaled(t, sys, "queue-depth")
	defer ns.Close()
	if _, err := ns.OfferRamp([]float64{0.4, 1.5, 3.0, 1.5, 0.4}, 40*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Scaling == nil {
		t.Fatal("autoscaled session reports no scaling timeline")
	}
	if st.Scaling.PeakNPUs <= 1 {
		t.Errorf("fleet never grew: %+v", st.Scaling.Events)
	}
	if st.Scaling.SLOLatencyMS != 6 {
		t.Errorf("SLO flattened to %.2fms, want 6", st.Scaling.SLOLatencyMS)
	}
	if len(st.Scaling.Events) == 0 || st.Scaling.Events[0].AtMS != 0 || st.Scaling.Events[0].NPUs != 1 {
		t.Errorf("timeline missing its initial anchor: %+v", st.Scaling.Events)
	}
	for i := 1; i < len(st.Scaling.Events); i++ {
		if st.Scaling.Events[i].AtMS < st.Scaling.Events[i-1].AtMS {
			t.Errorf("timeline out of order: %+v", st.Scaling.Events)
		}
	}
	if ns.NPUs() < st.Scaling.PeakNPUs {
		t.Errorf("NPUs() = %d below the observed peak %d (retired backends must stay visible)",
			ns.NPUs(), st.Scaling.PeakNPUs)
	}
	if st.Scaling.SLOViolationFrac < 0 || st.Scaling.SLOViolationFrac > 1 {
		t.Errorf("violation fraction %v outside [0,1]", st.Scaling.SLOViolationFrac)
	}
}

func TestAutoscaleConfigValidation(t *testing.T) {
	sys, err := prema.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	base := prema.NodeSessionConfig{
		NPUs:      1,
		Scheduler: prema.Scheduler{Policy: prema.FCFS},
	}
	cases := []struct {
		name string
		a    prema.AutoscaleConfig
	}{
		{"empty scaler", prema.AutoscaleConfig{SLO: time.Millisecond}},
		{"unknown scaler", prema.AutoscaleConfig{Scaler: "nope", SLO: time.Millisecond}},
		{"missing SLO", prema.AutoscaleConfig{Scaler: "static"}},
		{"inverted bounds", prema.AutoscaleConfig{Scaler: "static", SLO: time.Millisecond,
			MinNPUs: 4, MaxNPUs: 2}},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Autoscale = &tc.a
		if _, err := sys.OpenNode(cfg); err == nil {
			t.Errorf("%s: OpenNode accepted an invalid autoscale config", tc.name)
		}
		if tc.a.Validate() == nil && tc.name != "inverted bounds" {
			t.Errorf("%s: Validate accepted an invalid config", tc.name)
		}
	}
}

// rampScaler is a custom facade-registered scaler: it scales straight
// to the fleet maximum whenever anything is in flight (an aggressive
// burst policy no builtin implements).
type rampScaler struct{}

func (rampScaler) Decide(m prema.ScalerMetrics) prema.ScaleDelta {
	if m.InFlight > 0 && m.Active < m.Max {
		return prema.ScaleDelta(m.Max - m.Active)
	}
	return 0
}

func TestRegisterScalerRoundTrip(t *testing.T) {
	if err := prema.RegisterScaler("test-burst", func(prema.ScalerConfig) (prema.Scaler, error) {
		return rampScaler{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := prema.RegisterScaler("test-burst", func(prema.ScalerConfig) (prema.Scaler, error) {
		return rampScaler{}, nil
	}); err == nil {
		t.Error("duplicate scaler registration should error")
	}
	found := false
	for _, name := range prema.Scalers() {
		if name == "test-burst" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered scaler missing from Scalers(): %v", prema.Scalers())
	}

	sys, err := prema.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	ns := openAutoscaled(t, sys, "test-burst")
	defer ns.Close()
	if _, err := ns.OfferRamp([]float64{2.0, 2.0}, 40*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st, err := ns.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Scaling == nil || st.Scaling.PeakNPUs != 4 {
		t.Errorf("custom burst scaler never reached the fleet maximum: %+v", st.Scaling)
	}
}

// TestSpeedFactorBounded: a tier derate or a slowdown factor that is not
// finite or exceeds 1000 is refused wherever the facade takes one, and
// 1000 itself is accepted.
func TestSpeedFactorBounded(t *testing.T) {
	sys, err := prema.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	fcfs := prema.Scheduler{Policy: prema.FCFS}
	open := func(fleet string) (nodeErr, planeErr error) {
		ns, nodeErr := sys.OpenNode(prema.NodeSessionConfig{NPUs: 2, Scheduler: fcfs, Fleet: fleet})
		if nodeErr == nil {
			nodeErr = ns.Close()
		}
		cp, planeErr := sys.OpenControlPlane(prema.ControlPlaneConfig{NPUs: 2, Scheduler: fcfs, Fleet: fleet})
		if planeErr == nil {
			planeErr = cp.Close()
		}
		return nodeErr, planeErr
	}
	if nodeErr, planeErr := open("50%:fast,50%:x@1000"); nodeErr != nil || planeErr != nil {
		t.Fatalf("a factor-1000 tier refused: node %v, control plane %v", nodeErr, planeErr)
	}
	for _, fleet := range []string{"50%:fast,50%:x@NaN", "50%:fast,50%:x@1e300", "50%:fast,50%:x@1000.5"} {
		if nodeErr, planeErr := open(fleet); nodeErr == nil || planeErr == nil {
			t.Errorf("fleet %q accepted: node %v, control plane %v", fleet, nodeErr, planeErr)
		}
	}
	if err := (prema.ChaosOp{Kind: prema.ChaosSlow, Factor: 1000}).Validate(); err != nil {
		t.Errorf("slowdown x1000 refused: %v", err)
	}
	for _, f := range []float64{math.NaN(), 1e300, 1000.5} {
		if err := (prema.ChaosOp{Kind: prema.ChaosSlow, Factor: f}).Validate(); err == nil {
			t.Errorf("slowdown x%v accepted", f)
		}
	}
}
