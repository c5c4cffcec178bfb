package exp

// engine.go is the concurrent experiment-execution engine. Every
// evaluation in this package decomposes into independent simulation runs
// — (scheduler configuration x run index) pairs over deterministic
// per-run RNG streams — so the engine fans them out over a worker pool
// and reassembles the outcomes in stable order.
//
// Determinism contract: a parallel execution is byte-identical to a
// sequential one. Three properties make that hold and must be preserved:
//
//  1. Per-run isolation. Every run constructs its own policy and
//     mechanism-selector instances (policies keep scratch state; see the
//     sched.Policy contract) and its own slab of scheduler entries
//     (workload.Entries), which it keeps: the run cache and
//     MultiResult.Tasks hold a run's entries, so unlike the harnesses
//     that compare configurations within one job, the engine never
//     refills a slab for another configuration. Run r's workload is
//     drawn from workload.RNGFor(seed, r) once per call and read by
//     every configuration: a drawn workload.Task is a record no
//     simulation changes, so no mutable state crosses runs.
//  2. Stable assembly. Worker completion order is nondeterministic, so
//     outcomes are written into an index-addressed slice and reduced
//     sequentially in (configuration, run) order afterwards — float
//     accumulation order and pooled task order both match the sequential
//     loop exactly.
//  3. Shared read-mostly state. The state shared across workers is the
//     Suite's workload.Generator and its optional RunCache; both are
//     mutex-guarded, and cache hits/misses cannot influence results
//     (programs and run outcomes are deterministic functions of their
//     keys, and cached outcomes are immutable by contract — see
//     cache.go).
//
// First-error policy: once any run fails, runs not yet started are
// skipped and the lowest-indexed error among those that did run is
// returned. Which runs were attempted — and therefore which error
// surfaces when several would fail — may differ between parallel and
// sequential executions; the byte-identical guarantee covers successful
// results only.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workers resolves the Suite's worker-pool size: Workers when positive,
// otherwise GOMAXPROCS.
func (s *Suite) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) across the Suite's worker
// pool. Once any call fails, work not yet started is skipped and the
// lowest-indexed error among the calls that ran is returned (see the
// first-error policy above). fn must write its result into an index-addressed
// location; any cross-iteration reduction must happen after ForEach
// returns, in index order, to keep parallel output byte-identical to
// sequential. With one worker (or n <= 1) it degenerates to a plain
// sequential loop.
func (s *Suite) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := s.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	next.Store(-1)
	errs := make([]error, n)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runOutcome is one simulation run's contribution to a MultiResult.
type runOutcome struct {
	metrics metrics.Run
	tasks   []*sched.Task
}

// drawnRun is one run's workload within one RunConfigsSched call: drawn
// on the first cache miss for the run and then read by every
// configuration of the call that misses on it.
type drawnRun struct {
	once  sync.Once
	tasks []*workload.Task
	err   error
}

// draw answers the run-th workload of spec, drawing it from
// workload.RNGFor(seed, run) on first use. Concurrent callers wait for
// the one draw; a drawn workload is a set of records no simulation
// changes.
func (s *Suite) draw(d *drawnRun, spec workload.Spec, run int) ([]*workload.Task, error) {
	d.once.Do(func() {
		s.draws.Add(1)
		d.tasks, d.err = s.Gen.Generate(spec, workload.RNGFor(s.Seed, run))
	})
	return d.tasks, d.err
}

// runOne resolves the run-th simulation of cfg: a cache hit returns the
// memoized outcome (immutable by contract; see cache.go), a miss — or a
// non-cacheable run — simulates the run's workload (drawn through d)
// and populates the cache. Cached and simulated outcomes are
// bit-identical, so the engine's determinism contract is unaffected by
// the cache state.
func (s *Suite) runOne(cfg SchedulerConfig, scfg sched.Config, spec workload.Spec, run int, d *drawnRun) (runOutcome, error) {
	key, cacheable := s.cacheKey(cfg, scfg, spec, run)
	if cacheable {
		if o, ok := s.Cache.lookup(key); ok {
			return o, nil
		}
	}
	tasks, err := s.draw(d, spec, run)
	if err != nil {
		return runOutcome{}, err
	}
	o, err := s.simulateOne(cfg, scfg, tasks, run)
	if err != nil {
		return runOutcome{}, err
	}
	if cacheable {
		s.Cache.store(key, o)
	}
	return o, nil
}

// simulateOne executes the run-th simulation of cfg: a new slab of
// entries for the run's workload, which the outcome keeps, on one
// simulator with fresh policy and selector instances.
func (s *Suite) simulateOne(cfg SchedulerConfig, scfg sched.Config, tasks []*workload.Task, run int) (runOutcome, error) {
	atomic.AddInt64(&s.simulations, 1)
	res, err := s.simulate(cfg.Spec, sim.Options{Sched: scfg}, workload.Entries(tasks))
	if err != nil {
		return runOutcome{}, fmt.Errorf("%s run %d: %w", cfg.Label, run, err)
	}
	m, err := metrics.FromTasks(res.Tasks)
	if err != nil {
		return runOutcome{}, err
	}
	return runOutcome{metrics: m, tasks: res.Tasks}, nil
}

// simulate runs one simulation of entries under spec on the suite's NPU
// with fresh policy and selector instances (see sched.Spec.New); opt
// carries the scheduler configuration and the run's other options.
func (s *Suite) simulate(spec sched.Spec, opt sim.Options, entries []*sched.Task) (*sim.Result, error) {
	policy, selector, err := spec.New(opt.Sched)
	if err != nil {
		return nil, err
	}
	opt.NPU, opt.Policy, opt.Preemptive, opt.Selector = s.NPU, policy, spec.Preemptive, selector
	simulator, err := sim.New(opt, entries)
	if err != nil {
		return nil, err
	}
	return simulator.Run()
}

// RunConfigs executes runs simulations of every configuration over
// workloads drawn from spec, fanning all (configuration x run) pairs out
// over the worker pool. The r-th run of every configuration reads the
// same workload, drawn once per call on the first cache miss for r, so
// configurations are compared on exactly the same task mixes; a call
// the cache answers in full draws nothing. Results are returned in
// configuration order, each assembled in run order.
func (s *Suite) RunConfigs(cfgs []SchedulerConfig, spec workload.Spec, runs int) ([]*MultiResult, error) {
	return s.RunConfigsSched(cfgs, s.Sched, spec, runs)
}

// RunConfigsSched is RunConfigs with an explicit scheduler configuration,
// for sensitivity sweeps that perturb quanta or token thresholds without
// mutating the Suite.
func (s *Suite) RunConfigsSched(cfgs []SchedulerConfig, scfg sched.Config, spec workload.Spec, runs int) ([]*MultiResult, error) {
	if runs <= 0 {
		runs = s.Runs
	}
	// Surface configuration mistakes once, before fanning out.
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	draws := make([]drawnRun, runs)
	outcomes := make([]runOutcome, len(cfgs)*runs)
	err := s.ForEach(len(outcomes), func(i int) error {
		o, err := s.runOne(cfgs[i/runs], scfg, spec, i%runs, &draws[i%runs])
		if err != nil {
			return err
		}
		outcomes[i] = o
		return nil
	})
	if err != nil {
		return nil, err
	}
	results := make([]*MultiResult, len(cfgs))
	for ci, cfg := range cfgs {
		out := &MultiResult{Config: cfg}
		perRun := make([]metrics.Run, runs)
		for r := 0; r < runs; r++ {
			o := outcomes[ci*runs+r]
			perRun[r] = o.metrics
			out.Tasks = append(out.Tasks, o.tasks...)
		}
		out.Agg = metrics.Averaged(perRun)
		results[ci] = out
	}
	return results, nil
}

// RunMulti executes runs simulations of one configuration through the
// engine. See RunConfigs for the workload-pairing and determinism
// guarantees.
func (s *Suite) RunMulti(cfg SchedulerConfig, spec workload.Spec, runs int) (*MultiResult, error) {
	results, err := s.RunConfigs([]SchedulerConfig{cfg}, spec, runs)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}
