// Package ctl is the live control plane: it owns an autoscaled
// serving.NodeSession fleet and advances the deterministic stream clock
// — pausable, single-steppable, optionally paced against wall time at a
// configurable time-scale — while exposing an operator command API
// (list / get / cordon / drain / fail / scale / load / snapshot /
// report; see command.go for the full vocabulary).
//
// The design constraint everything here serves is determinism. The
// simulated fleet only ever moves on its virtual clock (cycles), never
// on wall time: wall pacing merely decides *when* the next virtual step
// is taken, not *what* it computes (drive.go holds the one sanctioned
// time.Sleep, behind a premalint ignore). Commands are serialized into
// the clock loop between ticks under one mutex, stamped with the
// virtual instant they executed at. The consequence is the property the
// tests lock in: the same command script at the same virtual timestamps
// replays byte-identically.
//
// The plane is also the scenario executor: internal/scenario compiles
// a declarative scenario into a command script and runs it here at
// time-scale 0, so the control plane is, literally, the scenario engine
// with a human (or an HTTP client) in the loop, and its RunReport is the
// one report model of both.
//
// Traffic follows a piecewise-constant load ramp: virtual time is
// divided into fixed segments, and entering a segment samples its
// Poisson arrival window at the current offered load with the session
// RNG (`load` changes apply from the next segment). A zero-load segment
// consumes no randomness, and a sampled window without arrivals is
// skipped — the discipline serving.NodeSession.OfferRamp follows too,
// so a plain node session over the same ramp sees the same arrivals.
package ctl

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/serving"
	"repro/internal/workload"
)

// Config parameterizes a control plane.
type Config struct {
	// Node is the fleet configuration the plane opens: initial NPUs,
	// routing, the per-NPU session (scheduler, horizon, warm-up) and an
	// optional autoscaler. The work ledger (TrackWork) is forced on so
	// failures can be injected at any point of the stream.
	Node serving.NodeConfig
	// Models restricts the generated request mix (defaults to the
	// serving suite's default).
	Models []string
	// Seed seeds the arrival process; 0 means the facade's fixed
	// default (0x5E55), keeping scripted runs comparable to scenarios.
	Seed uint64
	// Segment is the arrival-generation window (default 20ms): load
	// changes take effect at segment boundaries, exactly like a
	// scenario ramp whose segments are this long.
	Segment time.Duration
	// Step is the clock-advance granularity of paced and `step` mode
	// (default 1ms).
	Step time.Duration
	// TimeScale is how many virtual seconds elapse per wall second when
	// the plane paces itself (Pace, or a paced script). 0 disables wall
	// pacing entirely: the clock moves only under `step` or scripted
	// command timestamps — the mode CI runs, with no wall-clock
	// dependence at all.
	TimeScale float64
	// Load is the initial offered load per NPU-capacity (the scenario
	// `load` unit); 0 starts the plane idle until a `load` command.
	Load float64
	// Name labels the run's report (default "control-plane").
	Name string
}

// Plane is a live control plane over one node-session fleet. All
// methods are safe for concurrent use: commands, snapshots and the
// pacing loop serialize on one mutex, so every observer sees the fleet
// between virtual steps, never mid-step.
type Plane struct {
	mu  sync.Mutex
	cfg Config
	srv *serving.Server
	ns  *serving.NodeSession
	rng *rand.Rand

	now        int64 // virtual clock, cycles
	stepCycles int64
	load       float64
	segIdx     int // next arrival segment to generate

	// buffer holds generated-but-not-yet-arrived tasks; bufHead is the
	// consumed prefix.
	buffer  []*workload.Task
	bufHead int
	offered int

	paused bool
	quit   bool
	err    error

	commands []CommandRecord
	final    *RunReport

	estScratch []float64
}

// New validates the configuration and opens the control plane's fleet.
// The plane starts paused when TimeScale is 0 (manual stepping);
// otherwise it is ready for Pace or a script to advance it.
func New(srv *serving.Server, cfg Config) (*Plane, error) {
	if cfg.Segment == 0 {
		cfg.Segment = 20 * time.Millisecond
	}
	if cfg.Segment < 0 {
		return nil, fmt.Errorf("ctl: negative segment %v", cfg.Segment)
	}
	if cfg.Step == 0 {
		cfg.Step = time.Millisecond
	}
	if cfg.Step < 0 {
		return nil, fmt.Errorf("ctl: negative step %v", cfg.Step)
	}
	if !(cfg.TimeScale >= 0) {
		return nil, fmt.Errorf("ctl: time-scale %v is negative or not a number", cfg.TimeScale)
	}
	if !validLoad(cfg.Load) {
		return nil, fmt.Errorf("ctl: offered load %v is negative or not finite", cfg.Load)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5E55
	}
	if cfg.Name == "" {
		cfg.Name = "control-plane"
	}
	step := srv.NPU().Cycles(cfg.Step)
	if step <= 0 {
		return nil, fmt.Errorf("ctl: step %v is under one cycle", cfg.Step)
	}
	if srv.NPU().Cycles(cfg.Segment) <= 0 {
		return nil, fmt.Errorf("ctl: segment %v is under one cycle", cfg.Segment)
	}
	node := cfg.Node
	node.TrackWork = true
	ns, err := srv.OpenNode(node)
	if err != nil {
		return nil, err
	}
	return &Plane{
		cfg:        cfg,
		srv:        srv,
		ns:         ns,
		rng:        workload.RNGFor(cfg.Seed, 0),
		stepCycles: step,
		load:       cfg.Load,
		paused:     cfg.TimeScale <= 0,
	}, nil
}

// validLoad reports whether x is an offered load the arrival generator
// can sample: non-negative and finite. NaN fails it too.
func validLoad(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// errClosed marks commands against a plane that has already quit.
var errClosed = errors.New("ctl: control plane closed")

func (p *Plane) cycles(d time.Duration) int64 { return p.srv.NPU().Cycles(d) }
func (p *Plane) millis(c int64) float64       { return p.srv.NPU().Millis(c) }

// segBoundary is the cycle segment idx starts at. Boundaries are
// computed through duration arithmetic — boundary(i) = Cycles(i *
// Segment) — because that is exactly how OfferRamp places segment
// offsets; computing i*Cycles(Segment) instead would drift by rounding
// and break arrival-for-arrival equivalence with a node session fed the
// same ramp.
func (p *Plane) segBoundary(idx int) int64 {
	return p.cycles(time.Duration(idx) * p.cfg.Segment)
}

// generateSegment samples the next segment's Poisson arrival window at
// the current offered load into the buffer. Idle (zero-load) segments
// consume no randomness and an empty sampled window is not an error —
// both mirror OfferRamp, keeping the RNG stream identical to a ramp's.
func (p *Plane) generateSegment() error {
	idx := p.segIdx
	p.segIdx++
	if p.load <= 0 {
		return nil
	}
	tasks, err := p.srv.Generate(serving.Spec{
		Horizon:     p.cfg.Segment,
		Offset:      time.Duration(idx) * p.cfg.Segment,
		OfferedLoad: p.load,
		Models:      p.cfg.Models,
		BatchSizes:  []int{1},
	}, p.rng)
	if err != nil {
		if errors.Is(err, serving.ErrNoArrivals) {
			return nil
		}
		return fmt.Errorf("ctl: segment %d (load %v): %w", idx, p.load, err)
	}
	p.buffer = append(p.buffer, tasks...)
	return nil
}

// advanceClockTo moves the virtual clock forward to cycle `to`:
// generating every arrival segment the clock enters, submitting
// buffered arrivals strictly before `to` (the node session itself fires
// due chaos ops and autoscale ticks against each arrival, and the
// trailing AdvanceToCycle flushes the tail), and leaving the stream
// clock exactly at `to`. Called with the plane mutex held. Advancing to
// the present or the past is a no-op — the clock never rewinds.
func (p *Plane) advanceClockTo(to int64) error {
	if to <= p.now {
		return nil
	}
	for p.segBoundary(p.segIdx) < to {
		if err := p.generateSegment(); err != nil {
			return err
		}
	}
	for p.bufHead < len(p.buffer) && p.buffer[p.bufHead].Arrival < to {
		t := p.buffer[p.bufHead]
		p.buffer[p.bufHead] = nil
		p.bufHead++
		if err := p.ns.Submit(t); err != nil {
			return err
		}
		p.offered++
	}
	if p.bufHead == len(p.buffer) && p.bufHead > 0 {
		p.buffer, p.bufHead = p.buffer[:0], 0
	}
	if err := p.ns.AdvanceToCycle(to); err != nil {
		return err
	}
	p.now = to
	return nil
}

// finish advances to the final instant, seals the stream and builds the
// run's report. Called with the mutex held, once, from the quit path.
func (p *Plane) finish(at int64) error {
	if err := p.advanceClockTo(at); err != nil {
		return err
	}
	// advanceClockTo submits strictly-earlier arrivals only, but a
	// sampled window is inclusive of its end, so an arrival can land
	// exactly on the final instant. OfferRamp submits every generated
	// arrival; flush those too, so a sealed session counts arrivals
	// exactly like a node session fed the same ramp.
	for p.bufHead < len(p.buffer) && p.buffer[p.bufHead].Arrival <= at {
		t := p.buffer[p.bufHead]
		p.buffer[p.bufHead] = nil
		p.bufHead++
		if err := p.ns.Submit(t); err != nil {
			return err
		}
		p.offered++
	}
	p.quit = true
	p.final = p.buildReport()
	return nil
}

// Done reports whether the plane has quit.
func (p *Plane) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quit
}

// Err reports the error that stopped the plane, if any.
func (p *Plane) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// NowMS reports the virtual clock in milliseconds.
func (p *Plane) NowMS() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.millis(p.now)
}

// Close seals the plane and its fleet. Idempotent.
func (p *Plane) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.quit = true
	return p.ns.Close()
}
