// Package exp contains one self-contained experiment per figure and table
// of the paper's evaluation (Section VI plus the motivation and
// characterization figures). Each experiment regenerates the rows or
// series the paper reports — the same workloads, parameter sweeps,
// baselines and metrics — against this repository's NPU simulator, and
// returns text tables that cmd/premabench prints and bench_test.go wraps.
//
// # Execution engine
//
// Experiments execute through a concurrent engine (engine.go): every
// evaluation decomposes into independent simulation runs — (scheduler
// configuration x run index) pairs, or per-trial jobs for the
// characterization figures — which fan out over Suite.Workers goroutines
// (GOMAXPROCS by default). The engine is deterministic: run r's
// workload is drawn from workload.RNGFor(Suite.Seed, r) once per call
// and read by every configuration (a drawn workload.Task is a record no
// simulation changes), each simulation constructs its own
// policy/selector instances and scheduler entries, outcomes are written into
// index-addressed slices, and all reductions happen sequentially in
// (configuration, run) order after the fan-out joins — so parallel
// results are byte-identical to a sequential execution (Workers = 1),
// including float accumulation order and pooled task/preemption order.
// On the first error the engine stops claiming new runs and reports the
// lowest-indexed failure among the runs that executed (the identity of
// that error may vary with worker count; the byte-identical guarantee
// covers successful results).
package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Table is one regenerated figure panel or table.
type Table struct {
	// ID matches the DESIGN.md experiment index ("fig5a", "fig12", ...).
	ID string
	// Title describes what the paper's counterpart shows.
	Title string
	// Headers are the column names.
	Headers []string
	// Rows are the data rows, already formatted.
	Rows [][]string
	// Note carries the paper-reported headline for easy comparison.
	Note string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns. Width accounting and
// the separator both span the widest row, so a data row with more cells
// than Headers still renders aligned.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, row := range t.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	row(t.Headers)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// Suite is the shared experiment context: one NPU configuration, one
// workload generator (with its compiled-program cache and seq-length
// profiles), and the run-count/seed the evaluation uses.
type Suite struct {
	NPU   npu.Config
	Sched sched.Config
	Gen   *workload.Generator
	// Runs is the number of simulation runs averaged per configuration
	// (the paper uses 25).
	Runs int
	// Seed drives all workload randomness deterministically.
	Seed uint64
	// Workers bounds the engine's worker pool; 0 (the default) uses
	// GOMAXPROCS, 1 forces sequential execution. Results are identical
	// for every value (see the package comment).
	Workers int
	// Cache memoizes engine run outcomes across experiments (see
	// cache.go); nil disables caching. Cached and freshly simulated
	// results are bit-identical, so enabling the cache never changes
	// any table.
	Cache *RunCache
	// ProfileSeed is the seed the Gen's seq-length profile library was
	// built with; it versions the on-disk cache (diskcache.go) together
	// with the NPU configuration.
	ProfileSeed uint64

	// simulations counts simulateOne executions (cache misses plus
	// non-cacheable runs); read via Simulations.
	simulations int64
	// draws counts the workloads RunConfigsSched drew, at most one per
	// run per call (see draw).
	draws atomic.Int64

	// diskPath/diskFP are set by AttachDiskCache and consumed by
	// FlushDiskCache (see diskcache.go).
	diskPath string
	diskFP   string
}

// Simulations reports how many simulations the Suite has actually
// executed, excluding cache hits — the instrumentation the cache tests
// and throughput accounting build on.
func (s *Suite) Simulations() int64 {
	return atomic.LoadInt64(&s.simulations)
}

// NewSuite builds the default experiment suite.
func NewSuite() (*Suite, error) {
	return NewSuiteFor(npu.DefaultConfig(), sched.DefaultConfig(), nil, 0xA11CE)
}

// NewSuiteFor builds a suite against an explicit NPU configuration,
// scheduler configuration and profile seed. A non-nil gen must have
// been built with (cfg, profileSeed) and is shared (its program cache
// amortizes across suite and caller); nil constructs a fresh one.
func NewSuiteFor(cfg npu.Config, scfg sched.Config, gen *workload.Generator, profileSeed uint64) (*Suite, error) {
	if gen == nil {
		var err error
		gen, err = workload.NewGenerator(cfg, profileSeed)
		if err != nil {
			return nil, err
		}
	}
	return &Suite{
		NPU:         cfg,
		Sched:       scfg,
		Gen:         gen,
		Runs:        25,
		Seed:        0xBEEF,
		Cache:       NewRunCache(),
		ProfileSeed: profileSeed,
	}, nil
}

// SchedulerConfig is one evaluated scheduler configuration: a scheduler
// under its figure legend name.
type SchedulerConfig struct {
	// Label is the figure legend name ("NP-FCFS", "Dynamic-PREMA", ...).
	Label string
	sched.Spec
}

// schedSpecs lists the configurations' scheduler specs, in order.
func schedSpecs(cfgs []SchedulerConfig) []sched.Spec {
	out := make([]sched.Spec, len(cfgs))
	for i, c := range cfgs {
		out[i] = c.Spec
	}
	return out
}

// NP returns the non-preemptive configuration for a policy.
func NP(policy string) SchedulerConfig {
	return SchedulerConfig{Label: "NP-" + policy, Spec: sched.Spec{Policy: policy}}
}

// preemptive returns a preemptive configuration of policy serviced by
// the given mechanism selector.
func preemptive(label, policy, selector string) SchedulerConfig {
	return SchedulerConfig{Label: label, Spec: sched.Spec{Policy: policy, Preemptive: true, Selector: selector}}
}

// StaticCkpt returns the preemptive, always-CHECKPOINT configuration.
func StaticCkpt(policy string) SchedulerConfig {
	return preemptive("Static-"+policy, policy, "static-checkpoint")
}

// StaticKill returns the preemptive, always-KILL configuration.
func StaticKill(policy string) SchedulerConfig {
	return preemptive("StaticKill-"+policy, policy, "static-kill")
}

// DynamicCkpt returns the Algorithm 3 configuration with CHECKPOINT
// saving.
func DynamicCkpt(policy string) SchedulerConfig {
	return preemptive("Dynamic-"+policy, policy, "dynamic-checkpoint")
}

// DynamicKill returns the Algorithm 3 configuration with KILL saving
// (Figure 15 sensitivity).
func DynamicKill(policy string) SchedulerConfig {
	return preemptive("DynamicKill-"+policy, policy, "dynamic-kill")
}

// MultiResult aggregates a configuration's outcome across runs.
type MultiResult struct {
	Config SchedulerConfig
	Agg    metrics.Aggregate
	// Tasks pools every completed task of every run (for SLA and tail
	// statistics across the whole experiment).
	Tasks []*sched.Task
}

// Experiment is a runnable evaluation entry.
type Experiment struct {
	// ID is the registry key ("fig11").
	ID string
	// Title describes the experiment.
	Title string
	// Run regenerates the experiment's tables.
	Run func(s *Suite) ([]*Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment id " + e.ID)
	}
	registry[e.ID] = e
}

// ByID returns one registered experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
	}
	return e, nil
}

// IDs lists the registered experiment identifiers in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All returns the registered experiments in ID order.
func All() []Experiment {
	var out []Experiment
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}
