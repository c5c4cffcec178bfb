package prema

// session.go is the streaming serving surface: System.Open returns a
// long-lived Session — the paper's Figure 1 TensorRT-Inference-Server
// setting as an endpoint. Callers Submit individual requests (or drive
// an open-loop Poisson arrival process with OfferLoad), let the dynamic
// batching window coalesce same-model CNN requests, and read incremental
// steady-state statistics at any point; Drain seals the stream and
// Close releases the session. Sustained-traffic scenarios are thereby
// first-class API citizens instead of being buried inside one
// experiment harness.

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/dnn"
	"repro/internal/serving"
	"repro/internal/workload"
)

// SessionConfig parameterizes a serving session.
type SessionConfig struct {
	// Scheduler is the NPU-local scheduling configuration.
	Scheduler Scheduler
	// Models restricts the request mix OfferLoad draws from (labels per
	// System.Models); empty serves the eight-model evaluation suite.
	// Submit is not restricted.
	Models []string
	// Window is the dynamic batching window: same-model CNN requests
	// arriving within a window are fused into one batched dispatch
	// (0 disables batching).
	Window time.Duration
	// MaxBatch caps the fused batch size (default 16).
	MaxBatch int
	// Horizon is the reference horizon for the warm-up cut; 0 derives
	// it from the latest submitted arrival.
	Horizon time.Duration
	// WarmupFraction of the horizon is excluded from latency
	// statistics (default 0.2).
	WarmupFraction float64
	// Seed drives the session's request sampling (RNN sequence lengths,
	// OfferLoad arrivals, random priorities) deterministically; 0
	// selects a fixed default.
	Seed uint64
}

// Request describes one inference request submitted to a Session.
type Request struct {
	// Model is the workload label (see System.Models).
	Model string
	// Batch is the request batch size (0 selects 1; batched sessions
	// coalesce batch-1 CNN requests).
	Batch int
	// Priority is the service level (0 selects Medium).
	Priority Priority
	// Arrival is the request's arrival time on the session clock.
	Arrival time.Duration
}

// SessionStats are the steady-state serving statistics of a session's
// stream so far. Statistics are per original request: fused batches are
// unbundled into their member requests.
type SessionStats struct {
	// Requests were submitted and completed; Measured excludes the
	// warm-up window; Dispatched counts NPU tasks after batching.
	Requests, Measured, Dispatched int
	// ThroughputPerSec is completed requests per second of makespan.
	ThroughputPerSec float64
	// Latency percentiles and mean, in milliseconds.
	MeanLatencyMS, P50LatencyMS, P95LatencyMS, P99LatencyMS float64
	// MeanNTT is the mean normalized turnaround time.
	MeanNTT float64
	// SLAViolations4x is the fraction of measured requests violating
	// 4x their isolated execution time (the paper's SLA notion).
	SLAViolations4x float64
	// MeanBatch is the average fused batch size across CNN dispatches.
	MeanBatch float64
}

// Session is an open serving endpoint over one System. Sessions are not
// safe for concurrent use.
type Session struct {
	sys    *System
	inner  *serving.Session
	rng    *rand.Rand
	models []string
	nextID int
}

// Open validates the configuration and opens a serving session.
func (s *System) Open(cfg SessionConfig) (*Session, error) {
	if err := cfg.Scheduler.Validate(); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5E55
	}
	srv := serving.NewServer(s.opt.NPU, s.opt.Sched, s.gen)
	inner, err := srv.Open(serving.SessionConfig{
		Policy:         string(cfg.Scheduler.Policy),
		Preemptive:     cfg.Scheduler.Preemptive,
		Selector:       string(cfg.Scheduler.Mechanism),
		Window:         cfg.Window,
		MaxBatch:       cfg.MaxBatch,
		Horizon:        cfg.Horizon,
		WarmupFraction: cfg.WarmupFraction,
	})
	if err != nil {
		return nil, err
	}
	for _, name := range cfg.Models {
		if _, err := dnn.ByName(name); err != nil {
			return nil, err
		}
	}
	return &Session{
		sys:    s,
		inner:  inner,
		rng:    workload.RNGFor(seed, 0),
		models: cfg.Models,
	}, nil
}

// Submit appends one request to the session's stream.
func (ss *Session) Submit(req Request) error {
	batch := req.Batch
	if batch <= 0 {
		batch = 1
	}
	prio := req.Priority
	if prio == 0 {
		prio = Medium
	}
	if req.Arrival < 0 {
		return fmt.Errorf("prema: negative arrival %v", req.Arrival)
	}
	inst, err := ss.sys.gen.InstanceByName(ss.nextID, req.Model, batch, prio,
		ss.sys.opt.NPU.Cycles(req.Arrival), ss.rng)
	if err != nil {
		return err
	}
	if err := ss.inner.Submit(inst); err != nil {
		return err
	}
	ss.nextID++
	return nil
}

// SubmitInstance appends an already-generated instance (e.g. from
// System.Workload or System.Instances) to the stream.
func (ss *Session) SubmitInstance(inst *Instance) error {
	if err := ss.inner.Submit(inst); err != nil {
		return err
	}
	ss.nextID++
	return nil
}

// OfferLoad drives the open-loop arrival process: Poisson arrivals at
// the given offered utilization (request rate x mean isolated service
// time; loads near 1 saturate the NPU) over the horizon, with models
// drawn from the evaluation suite. Requests arrive at batch size 1 —
// the Figure 1 serving model, where batching is the session's job (see
// SessionConfig.Window). It returns how many requests arrived.
func (ss *Session) OfferLoad(load float64, horizon time.Duration) (int, error) {
	n, err := ss.inner.Offer(serving.Spec{
		Horizon:     horizon,
		OfferedLoad: load,
		Models:      ss.models,
		BatchSizes:  []int{1},
	}, ss.rng)
	if err != nil {
		return 0, err
	}
	ss.nextID += n
	return n, nil
}

// OfferClients drives a closed-loop client population: each of the
// clients keeps exactly one request in flight, releasing its first
// request after one exponential think sample (mean think) and each next
// request one think sample after the previous one completes — the
// interactive-user regime, sweeping concurrency instead of offered
// load. No request is released at or after the horizon, and closed
// loops require an unbatched session (Window 0). It returns how many
// requests were realized.
func (ss *Session) OfferClients(clients int, think, horizon time.Duration) (int, error) {
	n, err := ss.inner.OfferClients(serving.ClientSpec{
		Clients: clients,
		Think:   think,
		Horizon: horizon,
		Models:  ss.models,
	}, ss.rng)
	if err != nil {
		return 0, err
	}
	ss.nextID += n
	return n, nil
}

// Pending reports how many requests have been submitted so far.
func (ss *Session) Pending() int { return ss.inner.Pending() }

// Stats computes the steady-state statistics of everything submitted so
// far. Stats is incremental: repeated calls without new submissions
// answer from a memo, and an unbatched session simulates each request
// once, projecting only the work still in flight.
func (ss *Session) Stats() (SessionStats, error) {
	st, err := ss.inner.Stats()
	if err != nil {
		return SessionStats{}, err
	}
	return flattenStats(st), nil
}

// Drain computes final statistics and seals the session against further
// submissions; Stats remains callable until Close.
func (ss *Session) Drain() (SessionStats, error) {
	st, err := ss.inner.Drain()
	if err != nil {
		return SessionStats{}, err
	}
	return flattenStats(st), nil
}

// Close seals the session. Close is idempotent.
func (ss *Session) Close() error { return ss.inner.Close() }

func flattenStats(st serving.BatchStats) SessionStats {
	return SessionStats{
		Requests:         st.Requests,
		Measured:         st.Measured,
		Dispatched:       st.Dispatched,
		ThroughputPerSec: st.ThroughputPerSec,
		MeanLatencyMS:    st.MeanLatencyMS,
		P50LatencyMS:     st.P50LatencyMS,
		P95LatencyMS:     st.P95LatencyMS,
		P99LatencyMS:     st.P99LatencyMS,
		MeanNTT:          st.MeanNTT,
		SLAViolations4x:  st.SLAViolations4x,
		MeanBatch:        st.MeanBatch,
	}
}
