// Package serving models the sustained-load operating regime of a cloud
// inference server (the deployment the paper's introduction motivates):
// an open-loop Poisson stream of requests offered at a fraction of the
// NPU's capacity over a time horizon, with steady-state latency measured
// after a warm-up window. It turns the repository's closed 8-task
// workloads into the classic throughput-latency curves operators actually
// provision against, and shows where each scheduling policy's latency
// knee sits.
package serving

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Spec parameterizes one sustained-load run.
type Spec struct {
	// Horizon is the arrival window; requests arrive over
	// [Offset, Offset+Horizon).
	Horizon time.Duration
	// Offset shifts the whole arrival window, letting consecutive
	// Generate calls chain into a piecewise load profile (see
	// NodeSession.OfferRamp). 0 starts at the stream origin.
	Offset time.Duration
	// OfferedLoad is the offered utilization: the request rate times
	// the mix's mean isolated service time. Loads near or above 1
	// saturate the NPU.
	OfferedLoad float64
	// Models restricts the request mix (defaults to the 8-model suite).
	Models []string
	// BatchSizes restricts batches (defaults to {1,4,16}).
	BatchSizes []int
	// WarmupFraction of the horizon is excluded from latency
	// statistics (default 0.2).
	WarmupFraction float64
}

// Stats summarizes the steady-state behaviour of one run.
type Stats struct {
	// Requests admitted and completed.
	Requests int
	// Measured excludes warm-up arrivals.
	Measured int
	// ThroughputPerSec is completed inferences per second of makespan.
	ThroughputPerSec float64
	// MeanLatencyMS, P50LatencyMS, P95LatencyMS, P99LatencyMS are
	// steady-state turnaround statistics.
	MeanLatencyMS, P50LatencyMS, P95LatencyMS, P99LatencyMS float64
	// MeanNTT is the mean normalized turnaround of measured requests.
	MeanNTT float64
	// SLAViolations4x is the measured fraction violating 4x isolated.
	SLAViolations4x float64
}

// Server generates and runs sustained-load scenarios against one NPU
// configuration.
type Server struct {
	cfg  npu.Config
	scfg sched.Config
	gen  *workload.Generator
}

// NewServer builds a Server sharing the given workload generator.
func NewServer(cfg npu.Config, scfg sched.Config, gen *workload.Generator) *Server {
	return &Server{cfg: cfg, scfg: scfg, gen: gen}
}

// NPU answers the server's hardware configuration, giving callers that
// consume cycle-denominated results (node timelines, scaling events) the
// clock to convert them back to wall time.
func (s *Server) NPU() npu.Config { return s.cfg }

// meanServiceCycles estimates the mix's mean isolated service time by
// sampling instances.
func (s *Server) meanServiceCycles(models []string, batches []int, rng *rand.Rand) (float64, error) {
	const samples = 24
	var sum float64
	for i := 0; i < samples; i++ {
		name := models[rng.IntN(len(models))]
		b := batches[rng.IntN(len(batches))]
		task, err := s.gen.InstanceByName(i, name, b, sched.Medium, 0, rng)
		if err != nil {
			return 0, err
		}
		sum += float64(task.IsolatedCycles)
	}
	return sum / samples, nil
}

// Generate builds the Poisson request stream for a spec.
func (s *Server) Generate(spec Spec, rng *rand.Rand) ([]*workload.Task, error) {
	if spec.OfferedLoad <= 0 {
		return nil, fmt.Errorf("serving: non-positive offered load %v", spec.OfferedLoad)
	}
	if spec.Horizon <= 0 {
		return nil, fmt.Errorf("serving: non-positive horizon %v", spec.Horizon)
	}
	if spec.Offset < 0 {
		return nil, fmt.Errorf("serving: negative arrival offset %v", spec.Offset)
	}
	models := spec.Models
	if len(models) == 0 {
		for _, m := range defaultSuite() {
			models = append(models, m)
		}
	}
	batches := spec.BatchSizes
	if len(batches) == 0 {
		batches = []int{1, 4, 16}
	}
	mean, err := s.meanServiceCycles(models, batches, rng)
	if err != nil {
		return nil, err
	}
	// Poisson arrivals: exponential inter-arrival with rate
	// load / meanService.
	rate := spec.OfferedLoad / mean // arrivals per cycle
	horizon := s.cfg.Cycles(spec.Horizon)
	offset := s.cfg.Cycles(spec.Offset)
	var tasks []*workload.Task
	var at float64
	id := 0
	for {
		at += rng.ExpFloat64() / rate
		if int64(at) >= horizon {
			break
		}
		arrival := offset + int64(at)
		name := models[rng.IntN(len(models))]
		b := batches[rng.IntN(len(batches))]
		prio := sched.Priorities[rng.IntN(len(sched.Priorities))]
		task, err := s.gen.InstanceByName(id, name, b, prio, arrival, rng)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, task)
		id++
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("serving: horizon %v too short for load %v: %w",
			spec.Horizon, spec.OfferedLoad, ErrNoArrivals)
	}
	return tasks, nil
}

// ErrNoArrivals marks a generated window that produced no requests; a
// ramp (and the control plane's segment generator) tolerates such a
// segment (a trough can legitimately be empty) while single-spec entry
// points keep reporting it as an error.
var ErrNoArrivals = errors.New("no arrivals")

func defaultSuite() []string {
	return []string{"CNN-AN", "CNN-GN", "CNN-VN", "CNN-MN",
		"RNN-SA", "RNN-MT1", "RNN-MT2", "RNN-ASR"}
}

// simulate resolves the scheduler configuration (fresh policy and
// selector instances per call; see the sched.Policy contract) and runs
// one simulation over the given tasks.
func (s *Server) simulate(policy string, preemptive bool, selector string,
	tasks []*workload.Task) (*sim.Result, error) {
	return s.simulateHook(policy, preemptive, selector, workload.SchedTasks(tasks), nil)
}

// simulateHook is simulate with the closed-loop completion hook wired
// through: onComplete may inject newly released requests (see
// sim.Options.OnComplete).
func (s *Server) simulateHook(policy string, preemptive bool, selector string,
	entries []*sched.Task, onComplete func(*sched.Task, int64) []*sched.Task) (*sim.Result, error) {
	simulator, err := s.newSim(policy, preemptive, selector, entries, onComplete)
	if err != nil {
		return nil, err
	}
	return simulator.Run()
}

// newSim resolves the scheduler configuration (fresh policy and selector
// instances per simulator; see the sched.Policy contract) and prepares a
// simulator over the given entries.
func (s *Server) newSim(policy string, preemptive bool, selector string,
	entries []*sched.Task, onComplete func(*sched.Task, int64) []*sched.Task) (*sim.Sim, error) {
	pol, err := sched.ByName(policy, s.scfg)
	if err != nil {
		return nil, err
	}
	var sel sched.MechanismSelector
	if preemptive {
		if selector == "" {
			selector = "dynamic"
		}
		if sel, err = sched.SelectorByName(selector); err != nil {
			return nil, err
		}
	}
	return sim.New(sim.Options{
		NPU: s.cfg, Sched: s.scfg,
		Policy: pol, Preemptive: preemptive, Selector: sel,
		OnComplete: onComplete,
	}, entries)
}

// sampleSet is the raw measured material one simulation yields, kept
// sample-by-sample (rather than pre-aggregated) so the node session can
// merge per-NPU sets before deriving percentiles — a percentile of a
// union is not derivable from per-NPU percentiles.
type sampleSet struct {
	// requests were admitted and completed (members, on batched runs);
	// dispatched counts NPU tasks after coalescing.
	requests, dispatched int
	// latencies (ms) and ntts hold one entry per measured request, i.e.
	// per request arriving at or after the warm-up cut.
	latencies, ntts []float64
	// violated counts measured requests breaking the 4x-isolated SLA.
	violated int
	// makespan is the run's completion cycle.
	makespan int64
	// cnnBatches/cnnMembers feed the MeanBatch counter.
	cnnBatches, cnnMembers int
}

// merge folds other sample sets into one node-level set. Latency samples
// concatenate in argument order (percentiles sort internally, so order
// only pins determinism); the node's makespan is the slowest NPU's.
func (m *sampleSet) merge(parts ...*sampleSet) {
	for _, p := range parts {
		m.requests += p.requests
		m.dispatched += p.dispatched
		m.latencies = append(m.latencies, p.latencies...)
		m.ntts = append(m.ntts, p.ntts...)
		m.violated += p.violated
		if p.makespan > m.makespan {
			m.makespan = p.makespan
		}
		m.cnnBatches += p.cnnBatches
		m.cnnMembers += p.cnnMembers
	}
}

// collectTasks builds the sample set of an unbatched run: one request
// per completed task, excluding arrivals before cut.
func (s *Server) collectTasks(res *sim.Result, cut int64) *sampleSet {
	return s.collect(res.Tasks, res.Cycles, cut)
}

// collect builds an unbatched sample set from completed tasks in request
// order and the run's makespan, excluding arrivals before cut.
func (s *Server) collect(tasks []*sched.Task, makespan, cut int64) *sampleSet {
	sm := &sampleSet{
		requests:   len(tasks),
		dispatched: len(tasks),
		makespan:   makespan,
	}
	for _, t := range tasks {
		if t.Arrival < cut {
			continue
		}
		sm.latencies = append(sm.latencies, s.cfg.Millis(t.Turnaround()))
		sm.ntts = append(sm.ntts, t.NTT())
		if t.NTT() > 4 {
			sm.violated++
		}
	}
	return sm
}

// guardPercentile makes the small-sample degradation uniform: any
// percentile that could not be computed falls back to the next coarser
// statistic instead of leaking NaN into reports (P99 -> P95 -> P50 ->
// mean). With a non-empty measured set the percentiles are always
// finite, but a merged or hand-built sample set keeps the same contract.
func guardPercentile(p, fallback float64) float64 {
	if math.IsNaN(p) {
		return fallback
	}
	return p
}

// statsOf derives the steady-state statistics from a sample set. It is
// the single aggregation point shared by the batch entry points, the
// session memo, and the node session's per-NPU and merged views.
func (s *Server) statsOf(sm *sampleSet) (BatchStats, error) {
	out := BatchStats{Stats: Stats{Requests: sm.requests}, Dispatched: sm.dispatched}
	out.Measured = len(sm.latencies)
	if out.Measured == 0 {
		return BatchStats{}, fmt.Errorf("serving: no requests survive the warm-up window")
	}
	out.MeanLatencyMS = stats.Mean(sm.latencies)
	out.P50LatencyMS = guardPercentile(stats.Percentile(sm.latencies, 50), out.MeanLatencyMS)
	out.P95LatencyMS = guardPercentile(stats.Percentile(sm.latencies, 95), out.P50LatencyMS)
	out.P99LatencyMS = guardPercentile(stats.Percentile(sm.latencies, 99), out.P95LatencyMS)
	out.MeanNTT = stats.Mean(sm.ntts)
	out.SLAViolations4x = float64(sm.violated) / float64(out.Measured)
	if sec := s.cfg.Seconds(sm.makespan); sec > 0 {
		out.ThroughputPerSec = float64(sm.requests) / sec
	}
	if sm.cnnBatches > 0 {
		out.MeanBatch = float64(sm.cnnMembers) / float64(sm.cnnBatches)
	} else {
		out.MeanBatch = 1
	}
	return out, nil
}

// steadyStats computes the steady-state statistics of a completed run,
// excluding requests that arrived before cut.
func (s *Server) steadyStats(res *sim.Result, cut int64) (Stats, error) {
	st, err := s.statsOf(s.collectTasks(res, cut))
	if err != nil {
		return Stats{}, err
	}
	return st.Stats, nil
}

// warmupFraction resolves the warm-up fraction default (0.2).
func warmupFraction(f float64) float64 {
	if f <= 0 {
		return 0.2
	}
	return f
}

// warmupCut converts a horizon and warm-up fraction into the arrival
// cycle before which requests are excluded from statistics.
func (s *Server) warmupCut(horizon time.Duration, warmup float64) int64 {
	return int64(float64(s.cfg.Cycles(horizon)) * warmupFraction(warmup))
}

// Run executes one sustained-load scenario under the given scheduler
// configuration and returns steady-state statistics.
func (s *Server) Run(spec Spec, policy string, preemptive bool, selector string,
	rng *rand.Rand) (Stats, error) {

	tasks, err := s.Generate(spec, rng)
	if err != nil {
		return Stats{}, err
	}
	res, err := s.simulate(policy, preemptive, selector, tasks)
	if err != nil {
		return Stats{}, err
	}
	return s.steadyStats(res, s.warmupCut(spec.Horizon, spec.WarmupFraction))
}
