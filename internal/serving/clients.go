package serving

// clients.go is the closed-loop counterpart of the open-loop Offer
// arrival process: N clients each keep exactly one request in flight,
// releasing the next one only after the previous completes plus an
// exponential think time. Where the open-loop model sweeps offered load
// (and can push the queue unboundedly past saturation), the closed loop
// sweeps concurrency — the interactive-user regime where load is
// self-limiting and the knee appears as flattening throughput and
// rising latency as clients are added.
//
// Mechanically, OfferClients realizes the closed loop in one generation
// run: the already-submitted stream plus each client's first request are
// simulated with the sim.Options.OnComplete hook injecting every next
// release at its realized completion. The realized requests then join
// the session as ordinary submissions. Replaying those fixed arrivals
// (which is what Stats does) reproduces the generation run exactly,
// because the simulator's trajectory depends on arrival times, not on
// when an arrival became known — internal/sim's injection test locks
// that invariant in.

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

// ClientSpec parameterizes a closed-loop client population.
type ClientSpec struct {
	// Clients is the population size: the number of requests in flight
	// never exceeds it.
	Clients int
	// Think is the mean exponential think time between a request's
	// completion and the same client's next release (0 means
	// back-to-back requests, think floor one cycle).
	Think time.Duration
	// Horizon bounds the run: no request is released at or after it.
	Horizon time.Duration
	// Models restricts the request mix (defaults to the 8-model suite).
	Models []string
	// BatchSizes restricts batches (defaults to {1}: closed-loop
	// requests model individual interactive calls).
	BatchSizes []int
}

// OfferClients drives the closed-loop arrival process: each of the
// spec's clients releases its first request after one think sample, then
// releases each next request one think sample after the previous one
// completes. The realized requests are submitted to the session and the
// realized arrival count is returned.
//
// The realized arrivals are fixed against the stream submitted so far:
// requests submitted after OfferClients returns share the NPU with the
// realized stream but do not retime it. Closed loops require an
// unbatched session (Window 0): window coalescing would re-time the
// completions that gate each next release.
func (ss *Session) OfferClients(spec ClientSpec, rng *rand.Rand) (int, error) {
	return ss.offerClients(spec, rng, 1, nil)
}

// offerClients is OfferClients on an NPU that serves the clients'
// requests at factor× their nominal service time. A non-nil stamp sees
// each realized request, in realization order, before it is submitted,
// and answers its trace request ID (a traced node records its submit,
// route and stretch events there).
func (ss *Session) offerClients(spec ClientSpec, rng *rand.Rand, factor float64, stamp func(*workload.Task) int) (int, error) {
	if ss.closed {
		return 0, fmt.Errorf("serving: session closed")
	}
	if ss.drained {
		return 0, fmt.Errorf("serving: session drained; no further submissions")
	}
	if ss.cfg.Window > 0 {
		return 0, fmt.Errorf("serving: closed-loop clients require an unbatched session (Window 0)")
	}
	if spec.Clients <= 0 {
		return 0, fmt.Errorf("serving: non-positive client count %d", spec.Clients)
	}
	if spec.Think < 0 {
		return 0, fmt.Errorf("serving: negative think time %v", spec.Think)
	}
	if spec.Horizon <= 0 {
		return 0, fmt.Errorf("serving: non-positive horizon %v", spec.Horizon)
	}
	models := spec.Models
	if len(models) == 0 {
		models = defaultSuite()
	}
	batches := spec.BatchSizes
	if len(batches) == 0 {
		batches = []int{1}
	}
	horizon := ss.srv.cfg.Cycles(spec.Horizon)
	thinkMean := float64(ss.srv.cfg.Cycles(spec.Think))

	// The generation run sees the session's current stream plus the
	// client traffic, so the realized completions reflect the shared
	// NPU. IDs continue the submission indices: the replay (compute)
	// numbers its entries with exactly these IDs, keeping every
	// tie-break identical between generation and replay.
	entries := workload.Slab(len(ss.reqs))
	for i, e := range entries {
		ss.reqs[i].Fill(e, i, ss.reqs[i].Arrival, ss.factor(i))
	}
	nextID := len(ss.reqs)
	var realized []*workload.Task
	owner := make(map[int]int, spec.Clients)
	release := func(client int, at int64) (*sched.Task, error) {
		gap := int64(rng.ExpFloat64() * thinkMean)
		if gap < 1 {
			// Arrivals strictly follow the completions that release
			// them; a zero-cycle think would alias the two events.
			gap = 1
		}
		arrival := at + gap
		if arrival >= horizon {
			return nil, nil // the client's session ends at the horizon
		}
		name := models[rng.IntN(len(models))]
		b := batches[rng.IntN(len(batches))]
		prio := sched.Priorities[rng.IntN(len(sched.Priorities))]
		inst, err := ss.srv.gen.InstanceByName(nextID, name, b, prio, arrival, rng)
		if err != nil {
			return nil, err
		}
		owner[nextID] = client
		nextID++
		realized = append(realized, inst)
		return inst.Entry(inst.ID, arrival, factor), nil
	}

	for c := 0; c < spec.Clients; c++ {
		entry, err := release(c, 0)
		if err != nil {
			return 0, err
		}
		if entry != nil {
			entries = append(entries, entry)
		}
	}
	if len(realized) == 0 {
		return 0, fmt.Errorf("serving: horizon %v too short for think time %v",
			spec.Horizon, spec.Think)
	}

	var hookErr error
	onComplete := func(done *sched.Task, now int64) []*sched.Task {
		if hookErr != nil {
			return nil
		}
		client, ok := owner[done.ID]
		if !ok {
			return nil // not closed-loop traffic
		}
		entry, err := release(client, now)
		if err != nil {
			hookErr = err
			return nil
		}
		if entry == nil {
			return nil
		}
		return []*sched.Task{entry}
	}
	simulator, err := ss.srv.newSim(ss.cfg.spec(), entries, onComplete)
	if err != nil {
		return 0, err
	}
	res, err := simulator.Run()
	if err != nil {
		return 0, err
	}
	if hookErr != nil {
		return 0, hookErr
	}

	// Commit the realized stream: from here on it is ordinary submitted
	// traffic. Because replaying the realized arrivals reproduces the
	// generation run exactly, the generation result already IS the
	// session's next simulation — memoize its samples instead of leaving
	// the session dirty, so a following Stats/Drain re-simulates
	// nothing. (cut() reads the committed stream, so append first.) The
	// realized arrivals reach back before the bound a live simulator
	// already ran to, so the next refresh after a further submission
	// rebuilds it from cycle 0.
	for _, t := range realized {
		id := 0
		if stamp != nil {
			id = stamp(t)
		}
		if err := ss.submit(t, factor, id); err != nil {
			return 0, err
		}
	}
	ss.simulations++
	ss.srv.collectTasks(&ss.samples, res, ss.cut())
	if ss.traced {
		ss.retainCompletions(res.Tasks)
	}
	ss.dirty = false
	ss.statsValid = false
	return len(realized), nil
}
