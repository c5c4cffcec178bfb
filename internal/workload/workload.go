// Package workload constructs the multi-tasked DNN workloads of
// Section III: N inference tasks randomly selected among the eight
// benchmark DNNs, dispatched at uniformly random times, each assigned a
// random priority among low/medium/high, with batch sizes drawn from the
// evaluated set. RNN task instances receive a concrete, input-dependent
// unrolled sequence length sampled from the profile-driven
// characterization corpus, while the scheduler sees only the predicted
// length (Section VI's methodology).
//
// A generated task is a request record (Task); a simulation builds the
// scheduler's context-table entries from it (Task.Entry, Entries) and
// never changes the record, so one workload can be simulated under any
// number of scheduler configurations.
package workload

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/dnn"
	"repro/internal/npu"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/seqlen"
	"repro/internal/stats"
)

// Spec parameterizes workload construction.
type Spec struct {
	// Tasks is the number of co-scheduled inference tasks (the paper's
	// evaluation uses 8).
	Tasks int
	// Models is the pool tasks are drawn from; defaults to dnn.Suite().
	Models []*dnn.Model
	// BatchSizes is the batch-size pool; defaults to dnn.BatchSizes.
	// Use a single-element slice for fixed-batch studies (Figure 14).
	BatchSizes []int
	// ArrivalWindow is the dispatch window over which arrival times are
	// drawn uniformly at random; defaults to 20 ms, which produces the
	// heavy contention a consolidated inference server experiences.
	ArrivalWindow time.Duration
	// FixedPriority pins every task to one priority level when
	// non-zero; otherwise priorities are drawn uniformly at random.
	FixedPriority sched.Priority
	// Estimator overrides the latency predictor used to populate
	// EstimatedCycles; nil selects the Algorithm 1 analytic model.
	Estimator Estimator
}

// Estimator abstracts the task-length predictor plugged into the
// generated tasks (analytic, profile-based, oracle, or MAC proxy).
type Estimator interface {
	Estimate(m *dnn.Model, batch, inLen int) (int64, error)
}

// oracleEstimator is resolved by the generator itself since it needs the
// compiled ground truth.
type oracleEstimator struct{}

// Oracle returns an Estimator marker that makes the generator use each
// task's exact simulated execution time as its estimate (Section VI-D).
func Oracle() Estimator { return oracleEstimator{} }

// Estimate implements Estimator; never called (the generator intercepts
// the marker), but present so the interface is satisfied.
func (oracleEstimator) Estimate(*dnn.Model, int, int) (int64, error) {
	return 0, fmt.Errorf("workload: oracle estimator is resolved by the generator")
}

// Task is one generated inference request, a plain record: what was
// asked for (model, batch, priority, arrival), what the predictor
// estimated, and how the request was realized (sampled sequence lengths,
// compiled program). No simulation runs or mutates a Task: each one
// builds its own scheduler entry from it (Entry), so the same Task can
// be simulated any number of times.
type Task struct {
	// ID is the request's index in its workload: the TaskID its
	// scheduler entries carry unless the caller renumbers them.
	ID int
	// Model is the workload label.
	Model string
	// Batch is the inference batch size.
	Batch int
	// Priority is the user-defined priority level.
	Priority sched.Priority
	// Arrival is the dispatch cycle.
	Arrival int64
	// EstimatedCycles is the predictor's network-wide latency estimate
	// at nominal speed.
	EstimatedCycles int64

	ModelRef                *dnn.Model
	InLen                   int
	ActualOut, PredictedOut int
	Program                 *npu.Program
	// ModelID is a small generator-local integer naming the task's
	// model, assigned from 1 in first-use order (0 = unknown, for tasks
	// built outside a Generator). The telemetry hot path uses it as an
	// array index to resolve the model's interned name without touching
	// the string; it has no meaning across generators.
	ModelID int
}

// Entry builds a fresh scheduler entry for the request: a context-table
// entry (Figure 4) with TaskID id, arriving at cycle at, over a new
// execution cursor at factor× the nominal service time, with the
// estimate scaled to match (EstimateAt). Every simulation takes its
// entries from here; at factor 1 the cursor is npu.NewExecution's.
func (t *Task) Entry(id int, at int64, factor float64) *sched.Task {
	return sched.NewTask(id, t.Model, t.Batch, t.Priority, at,
		npu.NewScaledExecution(t.Program, factor), t.EstimateAt(factor))
}

// EstimateAt answers the request's estimate at factor× the nominal
// service time.
func (t *Task) EstimateAt(factor float64) int64 {
	if factor == 1 {
		return t.EstimatedCycles
	}
	return int64(float64(t.EstimatedCycles) * factor)
}

// Generator builds workloads against one NPU configuration, compiling
// each sampled task instance and attaching predictor estimates.
//
// A Generator is safe for concurrent use: the compiled-program and
// estimate caches are mutex-guarded, and everything else (compiler,
// profile library, analytic predictor) is immutable after construction.
// The experiment engine shares one Generator across its worker pool.
type Generator struct {
	cfg      npu.Config
	comp     *compiler.Compiler
	lib      *seqlen.Library
	analytic *predictor.Analytic

	// mu guards progCache and estCache. Compilation and estimation run
	// outside the lock; a losing racer adopts the winner's entry so
	// each key resolves to one canonical program.
	mu sync.Mutex
	// progCache memoizes compiled programs by (model, batch, inLen,
	// outLen). Programs are immutable after compilation and every
	// scheduler entry gets its own Execution cursor, so sharing is safe
	// and makes cross-policy comparisons over identical workloads cheap.
	progCache map[progKey]*npu.Program
	// estCache memoizes analytic estimates by the same key shape
	// (predicted output length).
	estCache map[progKey]int64
	// modelIDs assigns each distinct model name a small 1-based integer
	// in first-use order (Task.ModelID); also guarded by mu.
	modelIDs map[string]int
}

type progKey struct {
	model         string
	batch         int
	inLen, outLen int
}

// NewGenerator constructs a generator with its own seqlen profile library
// (seeded deterministically).
func NewGenerator(cfg npu.Config, profileSeed uint64) (*Generator, error) {
	comp, err := compiler.New(cfg)
	if err != nil {
		return nil, err
	}
	lib, err := seqlen.NewLibrary(profileSeed)
	if err != nil {
		return nil, err
	}
	an, err := predictor.NewAnalytic(cfg, lib)
	if err != nil {
		return nil, err
	}
	return &Generator{
		cfg: cfg, comp: comp, lib: lib, analytic: an,
		progCache: make(map[progKey]*npu.Program),
		estCache:  make(map[progKey]int64),
	}, nil
}

// compile returns the (cached) program for one concrete instance.
func (g *Generator) compile(m *dnn.Model, batch, inLen, outLen int) (*npu.Program, error) {
	k := progKey{model: m.Name, batch: batch, inLen: inLen, outLen: outLen}
	g.mu.Lock()
	p, ok := g.progCache[k]
	g.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := g.comp.Compile(m, batch, inLen, outLen)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	if prev, ok := g.progCache[k]; ok {
		p = prev // another worker compiled it first; keep one canonical program
	} else {
		g.progCache[k] = p
	}
	g.mu.Unlock()
	return p, nil
}

// analyticEstimate returns the (cached) Algorithm 1 estimate.
func (g *Generator) analyticEstimate(m *dnn.Model, batch, inLen int) (int64, error) {
	k := progKey{model: m.Name, batch: batch, inLen: inLen}
	g.mu.Lock()
	e, ok := g.estCache[k]
	g.mu.Unlock()
	if ok {
		return e, nil
	}
	e, err := g.analytic.Estimate(m, batch, inLen)
	if err != nil {
		return 0, err
	}
	g.mu.Lock()
	g.estCache[k] = e
	g.mu.Unlock()
	return e, nil
}

// Library exposes the generator's sequence-length profile library.
func (g *Generator) Library() *seqlen.Library { return g.lib }

// Analytic exposes the generator's Algorithm 1 predictor.
func (g *Generator) Analytic() *predictor.Analytic { return g.analytic }

// Compiler exposes the generator's compiler.
func (g *Generator) Compiler() *compiler.Compiler { return g.comp }

// Sample draws one concrete instance of a model and compiles it through
// the program cache: an RNN's sequence lengths come from the profile
// corpus (the only RNG draws an instance makes), a CNN draws nothing.
// Instance builds its request record on this step.
func (g *Generator) Sample(m *dnn.Model, batch int, rng *rand.Rand) (
	prog *npu.Program, inLen, actualOut, predictedOut int, err error) {
	if m.IsRNN() {
		inLen, actualOut, predictedOut, err = g.lib.SampleInstance(m.SeqProfile, rng)
		if err != nil {
			return nil, 0, 0, 0, err
		}
	}
	prog, err = g.compile(m, batch, inLen, actualOut)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return prog, inLen, actualOut, predictedOut, nil
}

// Instance compiles one concrete request of a model: RNN lengths are
// sampled from the profile corpus; the returned record carries both the
// ground-truth program and the predictor's estimate. It builds no
// scheduler entry (see Task.Entry).
func (g *Generator) Instance(id int, m *dnn.Model, batch int, prio sched.Priority,
	arrival int64, est Estimator, rng *rand.Rand) (*Task, error) {
	prog, inLen, actualOut, predictedOut, err := g.Sample(m, batch, rng)
	if err != nil {
		return nil, err
	}

	var estimated int64
	switch e := est.(type) {
	case nil:
		estimated, err = g.analyticEstimate(m, batch, inLen)
	case oracleEstimator:
		estimated, err = prog.TotalCycles, nil
	default:
		estimated, err = e.Estimate(m, batch, inLen)
	}
	if err != nil {
		return nil, err
	}

	return &Task{
		ID: id, Model: m.Name, Batch: batch, Priority: prio,
		Arrival: arrival, EstimatedCycles: estimated,
		ModelRef: m,
		ModelID:  g.modelID(m.Name),
		InLen:    inLen, ActualOut: actualOut, PredictedOut: predictedOut,
		Program: prog,
	}, nil
}

// modelID answers the generator-local 1-based integer for a model
// name, assigning one on first use.
func (g *Generator) modelID(name string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.modelIDs == nil {
		g.modelIDs = make(map[string]int)
	}
	id, ok := g.modelIDs[name]
	if !ok {
		id = len(g.modelIDs) + 1
		g.modelIDs[name] = id
	}
	return id
}

// InstanceByName is Instance with model lookup by workload label and the
// default (analytic) estimator — the common case for hand-built scenarios.
func (g *Generator) InstanceByName(id int, model string, batch int, prio sched.Priority,
	arrival int64, rng *rand.Rand) (*Task, error) {
	m, err := dnn.ByName(model)
	if err != nil {
		return nil, err
	}
	return g.Instance(id, m, batch, prio, arrival, nil, rng)
}

// Generate builds one multi-tasked workload per the Section III
// methodology using the given RNG.
func (g *Generator) Generate(spec Spec, rng *rand.Rand) ([]*Task, error) {
	if spec.Tasks <= 0 {
		return nil, fmt.Errorf("workload: non-positive task count %d", spec.Tasks)
	}
	models := spec.Models
	if len(models) == 0 {
		models = dnn.Suite()
	}
	batches := spec.BatchSizes
	if len(batches) == 0 {
		batches = dnn.BatchSizes
	}
	window := spec.ArrivalWindow
	if window <= 0 {
		window = 20 * time.Millisecond
	}
	windowCycles := g.cfg.Cycles(window)

	tasks := make([]*Task, 0, spec.Tasks)
	for i := 0; i < spec.Tasks; i++ {
		m := models[rng.IntN(len(models))]
		batch := batches[rng.IntN(len(batches))]
		prio := spec.FixedPriority
		if prio == 0 {
			prio = sched.Priorities[rng.IntN(len(sched.Priorities))]
		}
		arrival := rng.Int64N(windowCycles + 1)
		t, err := g.Instance(i, m, batch, prio, arrival, spec.Estimator, rng)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, t)
	}
	return tasks, nil
}

// Entries builds a fresh nominal-speed scheduler entry for every task,
// keeping its ID and arrival (see Task.Entry): new entries on every
// call, so the same tasks can be simulated again.
func Entries(ts []*Task) []*sched.Task {
	out := make([]*sched.Task, len(ts))
	for i, t := range ts {
		out[i] = t.Entry(t.ID, t.Arrival, 1)
	}
	return out
}

// RNGFor derives a deterministic per-run RNG from an experiment seed and
// a run index.
func RNGFor(seed uint64, run int) *rand.Rand {
	return stats.NewRNG(seed, uint64(run)*0x9e3779b97f4a7c15+1)
}
