package prema

// config.go is the typed configuration surface: scheduling policies,
// preemption-mechanism configurations and cluster routing policies are
// identified by dedicated types with parse helpers and Validate methods,
// so configuration mistakes — an unknown label, a mechanism on a
// non-preemptive run — fail loudly at the API boundary instead of being
// silently ignored or surfacing deep inside the simulator.

import (
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/serving"
)

// Policy identifies a scheduling policy. The paper's six policies are
// predeclared; RegisterPolicy adds custom ones, which parse and validate
// through the same registry.
type Policy string

// The paper's evaluated policies (Section VI).
const (
	// FCFS is the non-preemptive baseline of TensorRT Inference Server.
	FCFS Policy = "FCFS"
	// RRB rotates round-robin among the co-located tasks.
	RRB Policy = "RRB"
	// HPF runs the highest user priority first.
	HPF Policy = "HPF"
	// TOKEN uses Algorithm 2's candidate group with FCFS selection.
	TOKEN Policy = "TOKEN"
	// SJF runs the shortest estimated job first.
	SJF Policy = "SJF"
	// PREMA is the paper's token-based predictive scheduler.
	PREMA Policy = "PREMA"
)

// String returns the evaluation label.
func (p Policy) String() string { return string(p) }

// Validate reports whether the policy is registered.
func (p Policy) Validate() error {
	if p == "" {
		return fmt.Errorf("prema: empty policy (known: %v)", Policies())
	}
	if !sched.HasPolicy(string(p)) {
		return fmt.Errorf("prema: unknown policy %q (known: %v)", string(p), Policies())
	}
	return nil
}

// ParsePolicy validates a policy label (flag values, config files).
func ParsePolicy(s string) (Policy, error) {
	p := Policy(s)
	if err := p.Validate(); err != nil {
		return "", err
	}
	return p, nil
}

// Mechanism identifies a preemption-mechanism configuration: how a
// policy-recommended preemption is serviced. The paper's configurations
// are predeclared; RegisterSelector adds custom ones.
type Mechanism string

// The paper's mechanism configurations (Figures 12 and 15).
const (
	// StaticCheckpoint always checkpoints the preempted context.
	StaticCheckpoint Mechanism = "static-checkpoint"
	// StaticKill always discards the preempted task's progress.
	StaticKill Mechanism = "static-kill"
	// StaticKillLayer kills but resumes from the last layer boundary.
	StaticKillLayer Mechanism = "static-kill-layer"
	// StaticDrain always lets the running task finish.
	StaticDrain Mechanism = "static-drain"
	// Dynamic is Algorithm 3: DRAIN when the runner is nearly done,
	// CHECKPOINT otherwise.
	Dynamic Mechanism = "dynamic"
	// DynamicKill is Algorithm 3 with KILL as the saving mechanism.
	DynamicKill Mechanism = "dynamic-kill"
	// DynamicKillLayer is Algorithm 3 with layer-boundary KILL.
	DynamicKillLayer Mechanism = "dynamic-kill-layer"
)

// String returns the configuration label.
func (m Mechanism) String() string { return string(m) }

// Validate reports whether the mechanism configuration is registered.
// The empty mechanism is valid only as "default" inside a preemptive
// Scheduler (it resolves to Dynamic).
func (m Mechanism) Validate() error {
	if m == "" {
		return nil
	}
	if !sched.HasSelector(string(m)) {
		return fmt.Errorf("prema: unknown preemption mechanism %q (known: %v)",
			string(m), Mechanisms())
	}
	return nil
}

// ParseMechanism validates a mechanism label.
func ParseMechanism(s string) (Mechanism, error) {
	if s == "" {
		return "", fmt.Errorf("prema: empty preemption mechanism (known: %v)", Mechanisms())
	}
	m := Mechanism(s)
	if err := m.Validate(); err != nil {
		return "", err
	}
	return m, nil
}

// Routing identifies a cluster routing policy (the Section II-C
// deployment model's router).
type Routing string

// Cluster routing policies.
const (
	// RoundRobin cycles through the NPUs in dispatch order.
	RoundRobin Routing = "round-robin"
	// LeastQueued routes to the NPU with the fewest undrained requests.
	LeastQueued Routing = "least-queued"
	// LeastWork routes to the NPU with the least estimated backlog —
	// the predictive router built on Algorithm 1's estimates.
	LeastWork Routing = "least-work"
)

// String returns the routing label.
func (r Routing) String() string { return string(r) }

// Validate reports whether the routing policy exists; the empty value is
// valid and defaults to round-robin.
func (r Routing) Validate() error {
	_, err := r.toCluster()
	return err
}

// ParseRouting validates a routing label.
func ParseRouting(s string) (Routing, error) {
	r := Routing(s)
	if _, err := r.toCluster(); err != nil {
		return "", err
	}
	return r, nil
}

// Routings lists the cluster routing policies.
func Routings() []Routing {
	return []Routing{RoundRobin, LeastQueued, LeastWork}
}

// toCluster maps the identifier onto the internal routing policy.
func (r Routing) toCluster() (cluster.RoutingPolicy, error) {
	switch r {
	case "", RoundRobin:
		return cluster.RoundRobin, nil
	case LeastQueued:
		return cluster.LeastQueued, nil
	case LeastWork:
		return cluster.LeastWork, nil
	default:
		return 0, fmt.Errorf("prema: unknown routing policy %q (known: [%s %s %s])",
			string(r), RoundRobin, LeastQueued, LeastWork)
	}
}

// Scheduler selects a scheduling configuration.
type Scheduler struct {
	// Policy is the scheduling policy.
	Policy Policy
	// Preemptive enables the preemptible-NPU path.
	Preemptive bool
	// Mechanism selects how preemptions are serviced on preemptive
	// runs; empty defaults to Dynamic (Algorithm 3). Setting a
	// mechanism on a non-preemptive configuration is a validation
	// error — it would otherwise be silently ignored.
	Mechanism Mechanism
}

// Validate checks the configuration against the registries and the
// preemption invariant (see sched.Spec).
func (s Scheduler) Validate() error { return s.spec().Validate() }

// spec is the configuration as the simulator's scheduler spec.
func (s Scheduler) spec() sched.Spec {
	return sched.Spec{Policy: string(s.Policy), Preemptive: s.Preemptive, Selector: string(s.Mechanism)}
}

// AutoscaleConfig attaches an SLO-driven scaling policy to a node
// session (NodeSessionConfig.Autoscale): the scaler watches the
// router's fluid per-NPU load on a periodic tick and grows or shrinks
// the backend fleet between MinNPUs and MaxNPUs — the
// Kubernetes-autoscaler analogue of the Section II-C router.
type AutoscaleConfig struct {
	// Scaler is the scaling-policy label: "static" (no-op baseline),
	// "target-latency" (PI controller against the P95 SLO),
	// "queue-depth" (thresholds with hysteresis and cooldown), or a
	// custom policy added with RegisterScaler. Empty is a validation
	// error — attaching an autoscaler without picking a policy would
	// otherwise be silently inert.
	Scaler string
	// SLO is the P95 latency target the fleet is scaled against; the
	// scaling statistics also report the fraction of requests exceeding
	// it.
	SLO time.Duration
	// MinNPUs and MaxNPUs bound the fleet (defaults 1 and max(8, the
	// session's initial NPUs)). The initial fleet must lie inside the
	// bounds.
	MinNPUs, MaxNPUs int
	// Tick is the scaler evaluation period (default 2ms).
	Tick time.Duration
}

// Validate checks the scaler label and the SLO; the fleet bounds are
// checked against the initial fleet size when the node session opens.
func (a AutoscaleConfig) Validate() error {
	if a.Scaler == "" {
		return fmt.Errorf("prema: no scaler selected (known: %v)", Scalers())
	}
	if !autoscale.Has(a.Scaler) {
		return fmt.Errorf("prema: unknown scaler %q (known: %v)", a.Scaler, Scalers())
	}
	if a.SLO <= 0 {
		return fmt.Errorf("prema: autoscaling requires a positive latency SLO, got %v", a.SLO)
	}
	return nil
}

// toServing maps the facade configuration onto the serving substrate.
func (a AutoscaleConfig) toServing() *serving.AutoscaleConfig {
	return &serving.AutoscaleConfig{
		Scaler:  a.Scaler,
		SLO:     a.SLO,
		MinNPUs: a.MinNPUs,
		MaxNPUs: a.MaxNPUs,
		Tick:    a.Tick,
	}
}

// Node configures a multi-NPU system node (the Section II-C deployment
// model, implemented by the beyond-paper cluster extension).
type Node struct {
	// NPUs is the accelerator count (>= 1).
	NPUs int
	// Routing selects the router; empty defaults to RoundRobin.
	Routing Routing
	// Local is the per-NPU scheduler configuration.
	Local Scheduler
	// Parallel bounds how many per-NPU simulations run concurrently
	// (0 = GOMAXPROCS, 1 = sequential; results are identical).
	Parallel int
}

// Validate checks the node shape, routing and local scheduler.
func (n Node) Validate() error {
	if n.NPUs <= 0 {
		return fmt.Errorf("prema: non-positive NPU count %d", n.NPUs)
	}
	if err := n.Routing.Validate(); err != nil {
		return err
	}
	return n.Local.Validate()
}
