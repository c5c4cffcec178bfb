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

	"repro/internal/dnn"
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
// sampling programs: a request's isolated time at nominal speed is its
// program's TotalCycles.
func (s *Server) meanServiceCycles(models []string, batches []int, rng *rand.Rand) (float64, error) {
	const samples = 24
	var sum float64
	for i := 0; i < samples; i++ {
		name := models[rng.IntN(len(models))]
		b := batches[rng.IntN(len(batches))]
		m, err := dnn.ByName(name)
		if err != nil {
			return 0, err
		}
		prog, _, _, _, err := s.gen.Sample(m, b, rng)
		if err != nil {
			return 0, err
		}
		sum += float64(prog.TotalCycles)
	}
	return sum / samples, nil
}

// Generate builds the Poisson request stream for a spec.
func (s *Server) Generate(spec Spec, rng *rand.Rand) ([]*workload.Task, error) {
	if spec.OfferedLoad <= 0 {
		return nil, fmt.Errorf("serving: non-positive offered load %v", spec.OfferedLoad)
	}
	if math.IsNaN(spec.OfferedLoad) || math.IsInf(spec.OfferedLoad, 1) {
		// The arrival loop below would never pass the horizon.
		return nil, fmt.Errorf("serving: non-finite offered load %v", spec.OfferedLoad)
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
		// Compared as floats: a load so light that the first gap
		// overflows int64 still ends the window.
		if at >= float64(horizon) {
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

// simulate runs one simulation of the given entries under spec.
func (s *Server) simulate(spec sched.Spec, entries []*sched.Task) (*sim.Result, error) {
	simulator, err := s.newSim(spec, entries, nil)
	if err != nil {
		return nil, err
	}
	return simulator.Run()
}

// newSim prepares a simulator over the given entries under spec, with
// fresh policy and selector instances (see sched.Spec.New). onComplete
// may inject newly released requests (see sim.Options.OnComplete).
func (s *Server) newSim(spec sched.Spec, entries []*sched.Task,
	onComplete func(*sched.Task, int64) []*sched.Task) (*sim.Sim, error) {
	policy, selector, err := spec.New(s.scfg)
	if err != nil {
		return nil, err
	}
	return sim.New(sim.Options{
		NPU: s.cfg, Sched: s.scfg,
		Policy: policy, Preemptive: spec.Preemptive, Selector: selector,
		OnComplete: onComplete,
	}, entries)
}

// sampleSet is the raw measured material one simulation yields, kept
// sample-by-sample (rather than pre-aggregated) so the node session can
// merge per-NPU sets before deriving percentiles — a percentile of a
// union is not derivable from per-NPU percentiles.
//
// A session's set and a node's merged and per-tier sets are kept across
// polls: every refresh or merge overwrites them in place (reset, then
// collect or merge), so a poll allocates only when the stream outgrew
// their capacity. Session.Close and NodeSession.Close release them.
// statsOf never writes to a set; it sorts a copy of the latencies in
// the caller's scratch buffer.
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

// reset empties the set for a fresh collect or merge, keeping the
// latency and NTT buffers' capacity.
func (m *sampleSet) reset() {
	*m = sampleSet{latencies: m.latencies[:0], ntts: m.ntts[:0]}
}

// merge folds another sample set into a node-level set. Latency samples
// concatenate in call order (percentiles read a sorted copy, so order
// only pins the slice-order means); the node's makespan is the slowest
// NPU's.
func (m *sampleSet) merge(p *sampleSet) {
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

// collectTasks overwrites sm with the samples of an unbatched run: one
// request per completed task, excluding arrivals before cut.
func (s *Server) collectTasks(sm *sampleSet, res *sim.Result, cut int64) {
	s.collect(sm, res.Tasks, res.Cycles, cut)
}

// collect overwrites sm with an unbatched sample set from completed
// tasks in request order and the run's makespan, excluding arrivals
// before cut.
func (s *Server) collect(sm *sampleSet, tasks []*sched.Task, makespan, cut int64) {
	sm.reset()
	sm.requests, sm.dispatched, sm.makespan = len(tasks), len(tasks), makespan
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
// session memo, and the node session's per-NPU and merged views. The
// means sum the set in slice order; the percentiles all read one sorted
// copy of its latencies, made in *sorted — a scratch buffer the caller
// keeps (a session's own, or its node's for every backend, the merged
// set and the tiers) — so a poll sorts each set once and allocates
// nothing once the buffer has grown.
func (s *Server) statsOf(sm *sampleSet, sorted *[]float64) (BatchStats, error) {
	out := BatchStats{Stats: Stats{Requests: sm.requests}, Dispatched: sm.dispatched}
	out.Measured = len(sm.latencies)
	if out.Measured == 0 {
		return BatchStats{}, fmt.Errorf("serving: no requests survive the warm-up window")
	}
	out.MeanLatencyMS = stats.Mean(sm.latencies)
	*sorted = stats.SortedCopy(*sorted, sm.latencies)
	out.P50LatencyMS = guardPercentile(stats.PercentileSorted(*sorted, 50), out.MeanLatencyMS)
	out.P95LatencyMS = guardPercentile(stats.PercentileSorted(*sorted, 95), out.P50LatencyMS)
	out.P99LatencyMS = guardPercentile(stats.PercentileSorted(*sorted, 99), out.P95LatencyMS)
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

// defaultWarmup is the fraction of the horizon excluded from latency
// statistics by Run, RunBatched and every session that sets none.
const defaultWarmup = 0.2

// warmupFraction resolves the warm-up fraction default.
func warmupFraction(f float64) float64 {
	if f <= 0 {
		return defaultWarmup
	}
	return f
}

// warmupCut converts a horizon and warm-up fraction into the arrival
// cycle before which requests are excluded from statistics.
func (s *Server) warmupCut(horizon time.Duration, warmup float64) int64 {
	return int64(float64(s.cfg.Cycles(horizon)) * warmupFraction(warmup))
}

// Run generates one sustained-load stream and runs it under every given
// scheduler, each on the stream's one slab of entries refilled over the
// same requests, so the schedulers are compared on the identical stream.
// It returns one steady-state result per scheduler, in order.
func (s *Server) Run(spec Spec, schedulers []sched.Spec, rng *rand.Rand) ([]Stats, error) {
	if len(schedulers) == 0 {
		return nil, errNoSchedulers
	}
	tasks, err := s.Generate(spec, rng)
	if err != nil {
		return nil, err
	}
	cut := s.warmupCut(spec.Horizon, defaultWarmup)
	out := make([]Stats, len(schedulers))
	var sm sampleSet
	var sorted []float64
	entries := workload.Slab(len(tasks))
	for i, scheduler := range schedulers {
		res, err := s.simulate(scheduler, workload.Refill(entries, tasks))
		if err != nil {
			return nil, err
		}
		s.collectTasks(&sm, res, cut)
		st, err := s.statsOf(&sm, &sorted)
		if err != nil {
			return nil, err
		}
		out[i] = st.Stats
	}
	return out, nil
}

// errNoSchedulers refuses a Run or RunBatched given no scheduler to
// compare.
var errNoSchedulers = errors.New("serving: no scheduler to run")

// GenerateRamp builds the stream of a piecewise-constant offered-load
// profile: segment i offers loads[i] over [Offset+i*Horizon,
// Offset+(i+1)*Horizon) of the base spec, the segments drawn in order
// from rng and concatenated, so the stream is in arrival order. An empty
// trough is tolerated: a zero-load segment is an idle window that draws
// nothing, and a segment whose sampled Poisson window holds no arrivals
// is skipped rather than an error (segment offsets are absolute, so
// later segments land where they should regardless). Negative loads are
// an error, and so is a ramp that produces no request at all.
func (s *Server) GenerateRamp(base Spec, loads []float64, rng *rand.Rand) ([]*workload.Task, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("serving: empty load ramp")
	}
	if base.Horizon <= 0 {
		return nil, fmt.Errorf("serving: non-positive ramp segment %v", base.Horizon)
	}
	var tasks []*workload.Task
	for i, load := range loads {
		if load < 0 {
			return nil, fmt.Errorf("serving: ramp segment %d has negative load %v", i, load)
		}
		if load == 0 {
			continue // an idle window offers nothing
		}
		seg := base
		seg.OfferedLoad = load
		seg.Offset = base.Offset + time.Duration(i)*base.Horizon
		segment, err := s.Generate(seg, rng)
		if err != nil {
			if errors.Is(err, ErrNoArrivals) {
				continue
			}
			return nil, fmt.Errorf("serving: ramp segment %d (load %v): %w", i, load, err)
		}
		tasks = append(tasks, segment...)
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("serving: ramp produced no requests")
	}
	return tasks, nil
}
