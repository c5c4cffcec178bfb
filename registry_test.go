package prema

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// lifo is a custom scheduling policy registered through the public
// surface only: latest arrival first, preempting whenever the candidate
// arrived after the runner. It exists to prove plugins are full citizens
// of the typed-configuration world.
type lifo struct{}

func (lifo) Name() string        { return "LIFO" }
func (lifo) UsesPredictor() bool { return false }
func (lifo) Pick(ready []*Task, current *Task, now int64) Decision {
	best := ready[0]
	for _, t := range ready[1:] {
		if t.Arrival > best.Arrival || (t.Arrival == best.Arrival && t.ID > best.ID) {
			best = t
		}
	}
	return Decision{Candidate: best, Preempt: current != nil && best.Arrival > current.Arrival}
}

// alwaysKill is a custom mechanism selector: every preemption discards
// the victim's progress.
type alwaysKill struct{}

func (alwaysKill) Name() string                                        { return "always-kill" }
func (alwaysKill) Select(current, candidate *Task) PreemptionMechanism { return Kill }

// doubled is a custom estimator that doubles the analytic prediction's
// proxy (a fixed constant per MAC); it only needs to be pure.
type doubled struct{}

func (doubled) Estimate(m *Model, batch, inLen int) (int64, error) {
	return 2_000_000, nil
}
func (doubled) CacheKey() string { return "doubled-v1" }

// registerPlugins performs the process-wide registrations shared by the
// tests in this file exactly once.
var registerPlugins = sync.OnceValue(func() error {
	if err := RegisterPolicy("LIFO", func(SchedConfig) (SchedulingPolicy, error) {
		return lifo{}, nil
	}); err != nil {
		return err
	}
	if err := RegisterSelector("always-kill", func() (MechanismSelector, error) {
		return alwaysKill{}, nil
	}); err != nil {
		return err
	}
	return RegisterEstimator("doubled", doubled{})
})

func registerOnce(t *testing.T) {
	t.Helper()
	if err := registerPlugins(); err != nil {
		t.Fatal(err)
	}
}

// TestCustomPolicyEndToEnd is the acceptance criterion: a policy
// registered through the facade runs through System.Simulate and
// System.Open without touching internal packages.
func TestCustomPolicyEndToEnd(t *testing.T) {
	registerOnce(t)
	sys := newSystem(t)

	cfg := Scheduler{Policy: "LIFO", Preemptive: true, Mechanism: "always-kill"}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("registered labels should validate: %v", err)
	}

	// Through Simulate.
	tasks, err := sys.Workload(WorkloadSpec{Tasks: 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Simulate(cfg, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 6 {
		t.Fatalf("custom policy completed %d of 6 tasks", len(res.Tasks))
	}
	if res.Metrics.ANTT < 1 {
		t.Errorf("ANTT %v below 1", res.Metrics.ANTT)
	}

	// Through a serving Session.
	sess, err := sys.Open(SessionConfig{Scheduler: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.OfferLoad(0.4, 150*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st, err := sess.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 || st.ThroughputPerSec <= 0 {
		t.Errorf("session under custom policy produced no throughput: %+v", st)
	}

	// Instances are reusable: simulating the same ones again gives the
	// same result.
	again, err := sys.Simulate(cfg, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, res) {
		t.Error("re-simulating the same instances changed the result")
	}

	// Through a node simulation, on the same instances.
	nres, err := sys.SimulateNode(Node{NPUs: 2, Routing: LeastWork,
		Local: cfg}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(nres.Tasks) != 6 {
		t.Errorf("node run completed %d of 6 tasks", len(nres.Tasks))
	}
}

// TestCustomEstimatorWorkload proves registered estimators resolve
// through WorkloadSpec.
func TestCustomEstimatorWorkload(t *testing.T) {
	registerOnce(t)
	sys := newSystem(t)
	tasks, err := sys.Workload(WorkloadSpec{Tasks: 3, Estimator: "doubled"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.EstimatedCycles != 2_000_000 {
			t.Errorf("estimate %d, want the custom constant", task.EstimatedCycles)
		}
	}
}

// TestRegistrationIsWriteOnce pins the duplicate-rejection contract.
func TestRegistrationIsWriteOnce(t *testing.T) {
	registerOnce(t)
	if err := RegisterPolicy("LIFO", func(SchedConfig) (SchedulingPolicy, error) {
		return lifo{}, nil
	}); err == nil {
		t.Error("duplicate policy registration should error")
	}
	if err := RegisterPolicy("", nil); err == nil {
		t.Error("empty registration should error")
	}
	if err := RegisterSelector("always-kill", func() (MechanismSelector, error) {
		return alwaysKill{}, nil
	}); err == nil {
		t.Error("duplicate selector registration should error")
	}
	if err := RegisterEstimator("doubled", doubled{}); err == nil {
		t.Error("duplicate estimator registration should error")
	}
	// The builtin labels are resolved before the registry, so accepting
	// them would silently shadow the registration.
	if err := RegisterEstimator("oracle", doubled{}); err == nil {
		t.Error("registering over the builtin oracle label should error")
	}
	if err := RegisterEstimator("analytic", doubled{}); err == nil {
		t.Error("registering over the builtin analytic label should error")
	}
}
