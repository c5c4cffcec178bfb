package main

// workloads.go defines the four workloads. Each stresses different
// layers (see README.md for why each was chosen and which layer metric
// should move which end-to-end metric). Arrivals run on the simulator's
// virtual clock, so the host has no open-loop lateness: simulated
// latencies are outputs that go into the digest, not host metrics.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/ctl"
	"repro/internal/exp"
	"repro/internal/npu"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// benchWorkload is one set of inputs the benchmark runs.
type benchWorkload struct {
	name string
	// round runs round k: a timed set-up, then the workload's operations
	// on round k's input. It writes the round's deterministic output to
	// out and returns the state the round leaves live.
	round func(r *runner, k int, out io.Writer) (keep any, err error)
	// stream regenerates the requests of one input, in arrival order, for
	// the layer probes.
	stream func(r *runner, in uint64) ([]*workload.Task, error)
	// proxy marks a stream that stands in for requests the round makes
	// out of the benchmark's reach, so the probes cannot check that it
	// matches them.
	proxy bool
	// parallel marks a workload that spreads its work over every CPU.
	// The others run one request stream and get one P (GOMAXPROCS=1):
	// their garbage collector then shares that P instead of marking on
	// another CPU, which on a shared two-CPU host halves the spread of
	// their operation times between runs of one seed (8–15% → 4–6%).
	parallel bool
}

var workloads = []*benchWorkload{
	{name: "paper-sweep", round: sweepRound, stream: sweepStream, proxy: true, parallel: true},
	{name: "serve-mixed", round: serveRound, stream: serveStreamFresh},
	{name: "ctl-dashboard", round: ctlRound, stream: ctlStream},
	{name: "hetero-chaos", round: chaosRound, stream: chaosStream},
}

func workloadByName(name string) (*benchWorkload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// size holds the knobs that scale the workloads. fullSize is the
// benchmark; toySize keeps this package's own tests fast.
type size struct {
	sweep          []string // the experiments one paper-sweep round runs
	sweepRuns      int      // exp.Suite.Runs
	serveSegments  int      // Generate calls per serve-mixed stream
	serveSegment   time.Duration
	ctlPolls       int // step+snapshot polls per ctl-dashboard session
	chaosScenarios int // scenarios per hetero-chaos round
	golden         bool
}

var (
	fullSize = size{
		sweep:     sweepIDs,
		sweepRuns: 4,
		// Four half-second segments at load 3.2 offer about 500 requests.
		serveSegments:  4,
		serveSegment:   500 * time.Millisecond,
		ctlPolls:       400,
		chaosScenarios: 20,
		golden:         true,
	}
	toySize = size{
		sweep:          []string{"fig11", "fig12"},
		sweepRuns:      1,
		serveSegments:  1,
		serveSegment:   50 * time.Millisecond,
		ctlPolls:       20,
		chaosScenarios: 1,
	}
)

// sweepIDs are the experiments paper-sweep runs: all of exp.All()
// except accuracy, cluster, fig5, fig6, loadcurve and predictors. The
// compiled programs closedloop and fig14 keep live, ~1.8 GB whatever
// Runs is, are most of the generator cache's retention, and with them a
// sweep peaks near 3.2 GB. The six left out add ~0.8 GB retained and
// would take the peak past 4.5 GB, more than a benchmark run may take
// from a shared 8 GB machine. The list is fixed, so a newly registered
// experiment does not change the benchmark.
var sweepIDs = []string{
	"autoscale", "batching", "closedloop", "determinism", "energy", "fig1",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig2", "fig7",
	"fig9", "killgranularity", "oracle", "overhead", "sensitivity",
	"spill", "threshold",
}

// profileSeed is prema's default sequence-length profile seed.
const profileSeed = 0xA11CE

func newGenerator() (*workload.Generator, error) {
	return workload.NewGenerator(npu.DefaultConfig(), profileSeed)
}

// newServer builds the serving stack on the paper's NPU and scheduler
// defaults with a fresh generator, whose compiled-program cache starts
// empty — what a new process starts from.
func newServer() (*serving.Server, error) {
	gen, err := newGenerator()
	if err != nil {
		return nil, err
	}
	return serving.NewServer(npu.DefaultConfig(), sched.DefaultConfig(), gen), nil
}

// premaNode is the fixed fleet serve-mixed, ctl-dashboard and the
// serving probe run: four NPUs behind the least-work router, each
// scheduling with preemptive PREMA and the dynamic mechanism selector.
var premaNode = serving.NodeConfig{
	NPUs:    4,
	Routing: cluster.LeastWork,
	Session: serving.SessionConfig{Policy: "PREMA", Preemptive: true, Selector: "dynamic"},
}

// offeredLoad is the load serve-mixed and ctl-dashboard offer: 80% of
// the four-NPU node's capacity.
const offeredLoad = 3.2

// sweepRound runs every sweep experiment on one fresh exp.Suite with the
// result cache on. The engine fans simulations out over GOMAXPROCS
// workers.
func sweepRound(r *runner, k int, out io.Writer) (any, error) {
	var s *exp.Suite
	if err := r.setup("exp", "new_suite", func() (err error) {
		s, err = exp.NewSuite()
		return err
	}); err != nil {
		return nil, err
	}
	s.Runs, s.Seed = r.sz.sweepRuns, r.input(k)
	tables := make([][]*exp.Table, len(r.sz.sweep))
	if err := r.op(func() error {
		for i, id := range r.sz.sweep {
			if err := r.call("exp", id, func() error {
				e, err := exp.ByID(id)
				if err != nil {
					return err
				}
				tables[i], err = e.Run(s)
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i, id := range r.sz.sweep {
		if err := r.check(len(tables[i]) > 0, "experiment %s returned no table", id); err != nil {
			return nil, err
		}
		for _, t := range tables[i] {
			if err := r.check(len(t.Rows) > 0, "experiment %s table %s has no rows", id, t.ID); err != nil {
				return nil, err
			}
			if _, err := io.WriteString(out, t.String()); err != nil {
				return nil, err
			}
		}
	}
	st := s.Cache.Stats()
	r.count(k, "exp.simulations", float64(s.Simulations()))
	r.count(k, "exp.cache_hits", float64(st.Hits))
	r.count(k, "exp.cache_misses", float64(st.Misses))
	if lookups := st.Hits + st.Misses; lookups > 0 {
		r.count(k, "exp.cache_hit_ratio", float64(st.Hits)/float64(lookups))
	}
	return s, nil
}

// sweepStream is a proxy for a sweep's requests, which the experiment
// engine generates inside exp.Suite: it lays the engine experiments'
// default workload — eight requests from the suite over a 20 ms window —
// end to end for every run of one sweep input.
func sweepStream(r *runner, in uint64) ([]*workload.Task, error) {
	gen, err := newGenerator()
	if err != nil {
		return nil, err
	}
	window := npu.DefaultConfig().Cycles(20 * time.Millisecond)
	var stream []*workload.Task
	for run := 0; run < r.sz.sweepRuns; run++ {
		var tasks []*workload.Task
		if err := r.call("workload", "generate", func() (err error) {
			tasks, err = gen.Generate(workload.Spec{Tasks: 8}, workload.RNGFor(in, run))
			return err
		}); err != nil {
			return nil, err
		}
		for _, t := range tasks {
			t.Arrival += int64(run) * window
		}
		stream = append(stream, tasks...)
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Arrival < stream[j].Arrival })
	return stream, nil
}

// submitBatch is how many requests one timed Submit call span covers.
const submitBatch = 64

// serveRound streams one open-loop request stream through a fresh
// four-NPU node session and drains it.
func serveRound(r *runner, k int, out io.Writer) (any, error) {
	var (
		srv *serving.Server
		ns  *serving.NodeSession
	)
	if err := r.setup("serving", "open_node", func() (err error) {
		if srv, err = newServer(); err != nil {
			return err
		}
		ns, err = srv.OpenNode(premaNode)
		return err
	}); err != nil {
		return nil, err
	}
	var (
		st serving.NodeStats
		n  int
	)
	// The stream's length swings with its sampled arrival rate, so the
	// operation timed is one request of it.
	if err := r.opEach(&n, func() error {
		stream, err := serveStream(r, srv, r.input(k))
		if err != nil {
			return err
		}
		n = len(stream)
		for i := 0; i < n; i += submitBatch {
			batch := stream[i:min(i+submitBatch, n)]
			if err := r.call("serving", "submit", func() error {
				for _, t := range batch {
					if err := ns.Submit(t); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
		return r.call("serving", "drain", func() (err error) {
			st, err = ns.Drain()
			return err
		})
	}); err != nil {
		return nil, err
	}
	if err := r.check(st.Requests == n, "%d of %d offered requests completed", st.Requests, n); err != nil {
		return nil, err
	}
	r.offered(k, n)
	b, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	if _, err := out.Write(b); err != nil {
		return nil, err
	}
	if err := r.call("serving", "close", ns.Close); err != nil {
		return nil, err
	}
	return ns, nil
}

// serveStream generates serve-mixed's requests for one input: open-loop
// Poisson arrivals of the full eight-model suite at batch 1, one
// Server.Generate call per segment. Each call estimates its arrival rate
// from a few sampled requests, so several segments keep the stream's
// length from swinging with a single estimate.
func serveStream(r *runner, srv *serving.Server, in uint64) ([]*workload.Task, error) {
	return segments(r, srv, workload.RNGFor(in, 0), nil, r.sz.serveSegment,
		constLoads(r.sz.serveSegments, offeredLoad))
}

func serveStreamFresh(r *runner, in uint64) ([]*workload.Task, error) {
	srv, err := newServer()
	if err != nil {
		return nil, err
	}
	return serveStream(r, srv, in)
}

// interactiveModels is the request mix premactl and the scenario engine
// serve by default.
var interactiveModels = []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"}

// ctlSegment is premactl's default arrival-generation window.
const ctlSegment = 20 * time.Millisecond

// ctlRound is one dashboard session on a fresh control plane: every
// poll writes (steps the virtual clock 1 ms) and then reads (takes a
// snapshot). The session then quits and exports its report.
func ctlRound(r *runner, k int, out io.Writer) (any, error) {
	var p *ctl.Plane
	if err := r.setup("ctl", "new", func() error {
		srv, err := newServer()
		if err != nil {
			return err
		}
		p, err = ctl.New(srv, ctl.Config{
			Node: premaNode, Models: interactiveModels, Seed: r.input(k),
			Segment: ctlSegment, Load: offeredLoad, Name: "ctl-dashboard",
		})
		return err
	}); err != nil {
		return nil, err
	}
	for i := 0; i < r.sz.ctlPolls; i++ {
		if err := r.op(func() error {
			if err := r.call("ctl", "step", func() error {
				_, err := p.Exec("step 1ms")
				return err
			}); err != nil {
				return err
			}
			return r.call("ctl", "snapshot", func() error {
				p.Snapshot()
				return nil
			})
		}); err != nil {
			return nil, err
		}
	}
	var rep *ctl.RunReport
	if err := r.call("ctl", "report", func() error {
		if _, err := p.Exec("quit"); err != nil {
			return err
		}
		rep = p.Report()
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		_, err = out.Write(b)
		return err
	}); err != nil {
		return nil, err
	}
	snap := p.Snapshot()
	routed := 0
	for _, npu := range snap.Fleet {
		routed += npu.Routed
	}
	if err := r.check(rep.Requests > 0 && routed == rep.Requests && rep.StatsNote == "",
		"session routed %d of %d requests (stats note %q)", routed, rep.Requests, rep.StatsNote); err != nil {
		return nil, err
	}
	r.offered(k, rep.Requests)
	if err := r.call("ctl", "close", p.Close); err != nil {
		return nil, err
	}
	return p, nil
}

// ctlStream regenerates one dashboard session's arrivals exactly as the
// plane samples them: one Generate call per segment the session enters,
// from the plane's seeded RNG.
func ctlStream(r *runner, in uint64) ([]*workload.Task, error) {
	srv, err := newServer()
	if err != nil {
		return nil, err
	}
	span := time.Duration(r.sz.ctlPolls) * time.Millisecond
	return segments(r, srv, workload.RNGFor(in, 0), interactiveModels, ctlSegment,
		constLoads(int((span+ctlSegment-1)/ctlSegment), offeredLoad))
}

// chaosLoads is hetero-chaos's offered-load ramp, one entry per 30 ms
// segment.
var chaosLoads = []float64{1, 2.5, 4, 5, 5, 4, 2.5, 1}

// chaosScenario is hetero-chaos's scenario text for one input: a 70/30
// fast/slow fleet the queue-depth scaler grows from 6 toward 12 through
// a 240 ms ramp, with a failure, a x3 slowdown, a cordon and uncordon
// and a restore. The span stays under 250 ms on purpose: sim.New's
// default MaxCycles ignores arrival offsets, so on longer ramps a
// backend that a late scale-up adds trips the livelock guard.
func chaosScenario(in uint64) string {
	loads := make([]string, len(chaosLoads))
	for i, l := range chaosLoads {
		loads[i] = fmt.Sprint(l)
	}
	return fmt.Sprintf(`scenario hetero-chaos
fleet initial=6 min=6 max=12 tiers=70%%:fast,30%%:slow
routing least-work
policy PREMA preemptive
scaler queue-depth slo=8ms
models %s
seed %d
segment 30ms
load %s
at 50ms fail npu1
at 80ms slowdown npu2 x3
at 100ms cordon npu4
at 150ms uncordon npu4
at 170ms restore npu2
assert fleet between 4 12 during 0ms 240ms
assert slo_violation_frac < 1
`, strings.Join(interactiveModels, " "), in, strings.Join(loads, " "))
}

// chaosRound replays a batch of scenarios on one fresh server, each
// traced, rendered and exported the way premasim -scenario does with
// every output on.
func chaosRound(r *runner, k int, out io.Writer) (any, error) {
	var srv *serving.Server
	if err := r.setup("serving", "new_server", func() (err error) {
		srv, err = newServer()
		return err
	}); err != nil {
		return nil, err
	}
	var rep *scenario.Report
	for j := 0; j < r.sz.chaosScenarios; j++ {
		var (
			text  string
			jsonl []byte
		)
		if err := r.op(func() error {
			var sc *scenario.Scenario
			if err := r.call("scenario", "parse", func() (err error) {
				sc, err = scenario.Parse(chaosScenario(r.input(k*r.sz.chaosScenarios + j)))
				return err
			}); err != nil {
				return err
			}
			if err := r.call("scenario", "run", func() (err error) {
				rep, err = scenario.RunWithTrace(srv, sc, telemetry.New())
				return err
			}); err != nil {
				return err
			}
			if err := r.call("scenario", "render", func() error {
				text = rep.Render()
				return nil
			}); err != nil {
				return err
			}
			if err := r.call("ctl", "report_export", func() error {
				rr := ctl.FromScenario(rep)
				if _, err := rr.JSON(); err != nil {
					return err
				}
				_, err := rr.HTML()
				return err
			}); err != nil {
				return err
			}
			return r.call("telemetry", "encode", func() (err error) {
				jsonl, err = telemetry.EncodeJSONL(rep.Events, rep.Samples)
				return err
			})
		}); err != nil {
			return nil, err
		}
		done := telemetry.Summarize(rep.Events, 0).Completed
		if err := r.check(rep.Passed && done == rep.Requests,
			"scenario %d: passed=%v, %d of %d requests completed", j, rep.Passed, done, rep.Requests); err != nil {
			return nil, err
		}
		if j == 0 {
			r.offered(k, rep.Requests) // the probes replay scenario 0's requests
		}
		if _, err := io.WriteString(out, text); err != nil {
			return nil, err
		}
		if _, err := out.Write(jsonl); err != nil {
			return nil, err
		}
		r.count(k, "scenario.asserts_passed", float64(len(rep.Asserts)))
		r.count(k, "telemetry.ticks", float64(len(rep.Samples)))
	}
	return []any{srv, rep}, nil
}

// chaosStream regenerates the arrivals of one hetero-chaos scenario
// exactly as the executor's load ramp samples them.
func chaosStream(r *runner, in uint64) ([]*workload.Task, error) {
	srv, err := newServer()
	if err != nil {
		return nil, err
	}
	return segments(r, srv, workload.RNGFor(in, 0), interactiveModels, 30*time.Millisecond, chaosLoads)
}

// segments generates the requests of a piecewise-constant load ramp,
// one Server.Generate call per segment, as NodeSession.OfferRamp and the
// control plane do: an idle or arrival-free segment adds nothing.
func segments(r *runner, srv *serving.Server, rng *rand.Rand, models []string,
	seg time.Duration, loads []float64) ([]*workload.Task, error) {
	var stream []*workload.Task
	for i, load := range loads {
		if load == 0 {
			continue
		}
		var tasks []*workload.Task
		if err := r.call("serving", "generate", func() (err error) {
			tasks, err = srv.Generate(serving.Spec{
				Horizon:     seg,
				Offset:      time.Duration(i) * seg,
				OfferedLoad: load,
				Models:      models,
				BatchSizes:  []int{1},
			}, rng)
			if errors.Is(err, serving.ErrNoArrivals) {
				return nil
			}
			return err
		}); err != nil {
			return nil, err
		}
		stream = append(stream, tasks...)
	}
	return stream, nil
}

// constLoads is a ramp of n segments at one load.
func constLoads(n int, load float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = load
	}
	return out
}
