package prema

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/workload"
)

// TestParseHelpers covers the typed-identifier parse paths.
func TestParseHelpers(t *testing.T) {
	if p, err := ParsePolicy("PREMA"); err != nil || p != PREMA {
		t.Errorf("ParsePolicy(PREMA) = %v, %v", p, err)
	}
	if _, err := ParsePolicy("prema"); err == nil {
		t.Error("policy labels are case-sensitive; lowercase should error")
	}
	if _, err := ParsePolicy(""); err == nil {
		t.Error("empty policy should error")
	}
	if m, err := ParseMechanism("static-kill"); err != nil || m != StaticKill {
		t.Errorf("ParseMechanism(static-kill) = %v, %v", m, err)
	}
	if m, err := ParseMechanism("static"); err != nil || m != Mechanism("static") {
		t.Errorf("alias static should parse: %v, %v", m, err)
	}
	if _, err := ParseMechanism("warp"); err == nil {
		t.Error("unknown mechanism should error")
	}
	if _, err := ParseMechanism(""); err == nil {
		t.Error("empty mechanism should error in parse context")
	}
	if r, err := ParseRouting("least-work"); err != nil || r != LeastWork {
		t.Errorf("ParseRouting(least-work) = %v, %v", r, err)
	}
	if _, err := ParseRouting("warp-drive"); err == nil {
		t.Error("unknown routing should error")
	}
}

// TestSchedulerValidation pins the eager-rejection bugfix: unknown
// labels and the mechanism-on-non-preemptive mistake fail at Validate
// instead of being silently ignored.
func TestSchedulerValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Scheduler
		want string
	}{
		{"unknown policy", Scheduler{Policy: "NOPE"}, "unknown policy"},
		{"empty policy", Scheduler{}, "empty policy"},
		{"unknown mechanism", Scheduler{Policy: SJF, Preemptive: true, Mechanism: "bogus"},
			"unknown preemption mechanism"},
		{"mechanism without preemptive", Scheduler{Policy: PREMA, Mechanism: Dynamic},
			"non-preemptive"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, c.cfg)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	ok := []Scheduler{
		{Policy: FCFS},
		{Policy: PREMA, Preemptive: true},
		{Policy: PREMA, Preemptive: true, Mechanism: DynamicKill},
		{Policy: HPF, Preemptive: true, Mechanism: StaticCheckpoint},
	}
	for _, cfg := range ok {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected valid %+v: %v", cfg, err)
		}
	}
}

// TestSimulateRejectsInvalidSchedulers proves the validation actually
// gates the simulation entry points.
func TestSimulateRejectsInvalidSchedulers(t *testing.T) {
	sys := newSystem(t)
	tasks, err := sys.Workload(WorkloadSpec{Tasks: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Simulate(Scheduler{Policy: "NOPE"}, tasks); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := sys.Simulate(Scheduler{Policy: SJF, Preemptive: true,
		Mechanism: "bogus"}, tasks); err == nil {
		t.Error("unknown mechanism should error")
	}
	if _, err := sys.Simulate(Scheduler{Policy: SJF, Mechanism: StaticKill}, tasks); err == nil {
		t.Error("mechanism on a non-preemptive run should error")
	}
	if _, err := sys.SimulateNode(Node{NPUs: 2, Routing: "warp-drive",
		Local: Scheduler{Policy: FCFS}}, tasks); err == nil {
		t.Error("unknown routing should error")
	}
	if _, err := sys.SimulateNode(Node{NPUs: 0,
		Local: Scheduler{Policy: FCFS}}, tasks); err == nil {
		t.Error("non-positive NPU count should error")
	}
	if _, err := sys.SimulateNode(Node{NPUs: 2,
		Local: Scheduler{Policy: FCFS, Mechanism: StaticKill}}, tasks); err == nil {
		t.Error("node-local mechanism without preemptive should error")
	}
	if _, err := sys.Open(SessionConfig{
		Scheduler: Scheduler{Policy: FCFS, Mechanism: Dynamic}}); err == nil {
		t.Error("session with mechanism on non-preemptive scheduler should error")
	}
}

// TestRegistryListings sanity-checks the label listings the CLI help
// builds on.
func TestRegistryListings(t *testing.T) {
	pol := strings.Join(Policies(), ",")
	for _, want := range []string{"FCFS", "RRB", "HPF", "TOKEN", "SJF", "PREMA"} {
		if !strings.Contains(pol, want) {
			t.Errorf("policy listing missing %s: %s", want, pol)
		}
	}
	mech := strings.Join(Mechanisms(), ",")
	for _, want := range []string{"static-checkpoint", "static-kill", "static-drain",
		"dynamic", "dynamic-kill"} {
		if !strings.Contains(mech, want) {
			t.Errorf("mechanism listing missing %s: %s", want, mech)
		}
	}
	est := strings.Join(Estimators(), ",")
	for _, want := range []string{"analytic", "oracle"} {
		if !strings.Contains(est, want) {
			t.Errorf("estimator listing missing %s: %s", want, est)
		}
	}
}

// TestSchedulerSpecOneVerdict feeds the same scheduler triples to every
// driver that takes one, and every driver must give sched.Spec's
// accept-or-reject answer: the preemption rule and the dynamic default
// live in one place.
func TestSchedulerSpecOneVerdict(t *testing.T) {
	sys := newSystem(t)
	tasks, err := sys.Workload(WorkloadSpec{Tasks: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := serving.NewServer(sys.NPU(), sys.SchedConfig(), sys.gen)
	suite, err := exp.NewSuiteFor(sys.NPU(), sys.SchedConfig(), sys.gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	base, err := scenario.Parse("scenario verdict\nfleet initial=2\nsegment 20ms\nload 1\n")
	if err != nil {
		t.Fatal(err)
	}
	drivers := []struct {
		name string
		run  func(sched.Spec) error
	}{
		{"sched.Spec", sched.Spec.Validate},
		{"serving.Server.Open", func(sp sched.Spec) error {
			_, err := srv.Open(serving.SessionConfig{Policy: sp.Policy, Preemptive: sp.Preemptive, Selector: sp.Selector})
			return err
		}},
		{"cluster.Run", func(sp sched.Spec) error {
			_, err := cluster.Run(cluster.Options{NPUs: 2, NPU: sys.NPU(), Sched: sys.SchedConfig(), Local: sp}, tasks)
			return err
		}},
		{"exp.Suite.RunConfigs", func(sp sched.Spec) error {
			_, err := suite.RunConfigs([]exp.SchedulerConfig{{Label: "verdict", Spec: sp}}, workload.Spec{Tasks: 2}, 1)
			return err
		}},
		{"scenario.Validate", func(sp sched.Spec) error {
			sc := *base
			sc.Scheduler = sp
			return sc.Validate()
		}},
		{"prema.Scheduler.Validate", func(sp sched.Spec) error {
			return Scheduler{Policy: Policy(sp.Policy), Preemptive: sp.Preemptive, Mechanism: Mechanism(sp.Selector)}.Validate()
		}},
	}
	cases := []struct {
		spec sched.Spec
		ok   bool
	}{
		{sched.Spec{Policy: "FCFS"}, true},
		{sched.Spec{Policy: "FCFS", Selector: "static-kill"}, false},
		{sched.Spec{Policy: "PREMA", Preemptive: true}, true},
		{sched.Spec{Policy: "NOPE"}, false},
		{sched.Spec{}, false},
		{sched.Spec{Policy: "PREMA", Preemptive: true, Selector: "bogus"}, false},
		{sched.Spec{Policy: "PREMA", Preemptive: true, Selector: "dynamic-checkpoint"}, true},
		{sched.Spec{Policy: "HPF", Preemptive: true, Selector: "static-kill"}, true},
	}
	for _, c := range cases {
		for _, d := range drivers {
			if err := d.run(c.spec); (err == nil) != c.ok {
				t.Errorf("%s on %+v: error %v, want accepted=%v", d.name, c.spec, err, c.ok)
			}
		}
	}
}
