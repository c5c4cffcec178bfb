package sched

import "fmt"

// Spec names one scheduler configuration of the evaluation grid: a
// policy, run non-preemptively or preemptively, with the mechanism
// selector that services its preemptions. It is the one place the
// configuration is checked, defaulted and built: every driver (serving
// sessions, cluster runs, the experiments, scenarios, the facade) goes
// through Validate and New.
type Spec struct {
	// Policy is the policy label (RegisterPolicy).
	Policy string
	// Preemptive enables the preemptible-NPU path.
	Preemptive bool
	// Selector is the mechanism-selector label (RegisterSelector). Empty
	// means "dynamic" on a preemptive spec; a non-preemptive spec must
	// leave it empty, since nothing would ever consult it.
	Selector string
}

// Validate checks the labels against the registries and the rule that
// only a preemptive spec names a mechanism.
func (s Spec) Validate() error {
	if s.Policy == "" {
		return fmt.Errorf("sched: empty policy (known: %v)", PolicyNames())
	}
	if !HasPolicy(s.Policy) {
		return fmt.Errorf("sched: unknown policy %q (known: %v)", s.Policy, PolicyNames())
	}
	if !s.Preemptive {
		if s.Selector != "" {
			return fmt.Errorf("sched: mechanism %q set on a non-preemptive scheduler (set Preemptive or drop the mechanism)",
				s.Selector)
		}
		return nil
	}
	if !HasSelector(s.selector()) {
		return fmt.Errorf("sched: unknown preemption mechanism %q (known: %v)", s.Selector, SelectorNames())
	}
	return nil
}

// selector resolves a preemptive spec's selector label.
func (s Spec) selector() string {
	if s.Selector == "" {
		return "dynamic"
	}
	return s.Selector
}

// New validates the spec and builds fresh policy and selector instances
// on every call: policies keep scratch state (see the Policy contract),
// so one simulator's instances are never another's. The selector is nil
// on a non-preemptive spec.
func (s Spec) New(cfg Config) (Policy, MechanismSelector, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	policy, err := ByName(s.Policy, cfg)
	if err != nil || !s.Preemptive {
		return policy, nil, err
	}
	selector, err := SelectorByName(s.selector())
	if err != nil {
		return nil, nil, err
	}
	return policy, selector, nil
}
