package serving

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Dynamic batching is the TensorRT-Inference-Server runtime feature the
// paper's Figure 1 setup relies on: single inference requests of the same
// model arriving within a batching window are coalesced into one batched
// NPU task, trading queueing delay for the systolic array's strong
// batch efficiency. CNN requests batch freely; recurrent requests pass
// through unbatched because their per-request unrolled lengths differ
// (the same practical restriction real serving stacks face).

// BatchSpec parameterizes a batched sustained-load run.
type BatchSpec struct {
	// Spec is the underlying request stream; requests are generated at
	// batch size 1.
	Spec Spec
	// Window is the batching window: same-model CNN requests arriving
	// within a window are fused (0 disables batching).
	Window time.Duration
	// MaxBatch caps the fused batch size (default 16).
	MaxBatch int
}

// memberRequest tracks one original request inside a batched task.
type memberRequest struct {
	arrival  int64
	isolated int64 // batch-1 isolated cycles, the user-visible ideal
}

// BatchStats extends Stats with batching-specific counters.
type BatchStats struct {
	// Stats are the per-request steady-state statistics (latency is per
	// original member request, not per fused dispatch).
	Stats
	// Dispatched is the number of NPU tasks after coalescing.
	Dispatched int
	// MeanBatch is the average fused batch size across CNN dispatches.
	MeanBatch float64
}

// RunBatched generates a batch-1 request stream, coalesces it per the
// batching window, and runs the batched tasks under the given scheduler.
// Latency statistics are computed per original request (member), not per
// fused task.
func (s *Server) RunBatched(bs BatchSpec, scheduler sched.Spec, rng *rand.Rand) (BatchStats, error) {
	entries, members, err := s.batchStream(bs, rng)
	if err != nil {
		return BatchStats{}, err
	}
	res, err := s.simulate(scheduler, entries)
	if err != nil {
		return BatchStats{}, err
	}
	return s.memberStats(res, members, s.warmupCut(bs.Spec.Horizon, defaultWarmup))
}

// batchStream generates RunBatched's batch-1 request stream and
// coalesces it: it returns the scheduler entries to simulate and each
// entry's member requests (by entry ID). Same-model CNN requests whose
// arrivals fall within the window of the group's first request are
// grouped, and every group — a pass-through request too — is
// re-instanced at its batch size with a randomly sampled priority,
// dispatching when its window closes (the last member's arrival).
func (s *Server) batchStream(bs BatchSpec, rng *rand.Rand) ([]*sched.Task, map[int][]memberRequest, error) {
	if bs.MaxBatch <= 0 {
		bs.MaxBatch = 16
	}
	base := bs.Spec
	base.BatchSizes = []int{1}
	requests, err := s.Generate(base, rng)
	if err != nil {
		return nil, nil, err
	}
	windowCycles := s.cfg.Cycles(bs.Window)
	var entries []*sched.Task
	members := map[int][]memberRequest{}
	flush := func(group []int) error {
		batch := min(len(group), bs.MaxBatch)
		arrival := requests[group[len(group)-1]].Arrival
		prio := sched.Priorities[rng.IntN(len(sched.Priorities))]
		id := len(entries)
		task, err := s.gen.InstanceByName(id, requests[group[0]].Model, batch, prio, arrival, rng)
		if err != nil {
			return err
		}
		entries = append(entries, task.Entry(id, arrival, 1))
		ms := groupMembers(requests, group, nominal)
		if len(group) == 1 {
			// A lone request runs as its re-instanced program, which for
			// an RNN has newly drawn sequence lengths: that program is
			// the one its ideal is measured against.
			ms[0].isolated = task.Program.TotalCycles
		}
		members[id] = ms
		return nil
	}
	passThrough := func(r *workload.Task) bool {
		return r.ModelRef.IsRNN() || windowCycles == 0
	}
	if err := groupRequests(requests, windowCycles, bs.MaxBatch, passThrough, flush); err != nil {
		return nil, nil, err
	}
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("serving: batching produced no tasks")
	}
	return entries, members, nil
}

// nominal is the service-time factor of a request on a nominal-speed NPU.
func nominal(int) float64 { return 1 }

// groupMembers projects a request group (indices into reqs) onto its
// member records: each member's isolated time is its program's total at
// factor(i), the speed of the NPU request i was routed to.
func groupMembers(reqs []*workload.Task, group []int, factor func(int) float64) []memberRequest {
	ms := make([]memberRequest, len(group))
	for k, i := range group {
		ms[k] = memberRequest{arrival: reqs[i].Arrival, isolated: isolatedCycles(reqs[i].Program, factor(i))}
	}
	return ms
}

// isolatedCycles is a program's uninterrupted execution time at
// factor× the nominal service time: the IsolatedCycles of an entry
// built at that factor.
func isolatedCycles(prog *npu.Program, factor float64) int64 {
	if factor == 1 {
		return prog.TotalCycles
	}
	return npu.NewScaledExecution(prog, factor).TotalCycles()
}

// groupRequests runs the windowed grouping shared by RunBatched and the
// Session coalescer: requests are visited in arrival order; pass-through
// requests flush immediately as singleton groups, others accumulate per
// model and flush when the group's window expires or the batch cap
// fills, and the tail groups flush in sorted model order. A group lists
// its members as indices into requests, in arrival order. For a given
// stream the sequence of flush calls is deterministic, so flush may
// consume randomness.
func groupRequests(requests []*workload.Task, windowCycles int64, maxBatch int,
	passThrough func(*workload.Task) bool, flush func([]int) error) error {

	ordered := make([]int, len(requests))
	for i := range ordered {
		ordered[i] = i
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		return requests[ordered[i]].Arrival < requests[ordered[j]].Arrival
	})

	type group struct {
		opened  int64
		members []int
	}
	open := map[string]*group{}
	for _, i := range ordered {
		r := requests[i]
		if passThrough(r) {
			if err := flush([]int{i}); err != nil {
				return err
			}
			continue
		}
		g := open[r.Model]
		if g != nil && (r.Arrival-g.opened > windowCycles || len(g.members) >= maxBatch) {
			if err := flush(g.members); err != nil {
				return err
			}
			delete(open, r.Model)
			g = nil
		}
		if g == nil {
			g = &group{opened: r.Arrival}
			open[r.Model] = g
		}
		g.members = append(g.members, i)
	}
	// Deterministic flush order for the tail groups.
	var names []string
	for name := range open {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := flush(open[name].members); err != nil {
			return err
		}
	}
	return nil
}

// collectMembers overwrites sm with the per-request (member) sample set
// of a completed batched run: latency is measured from each original
// request's arrival to its fused task's completion, and normalized
// turnaround uses the request's batch-1 isolated time. Requests arriving
// before cut are excluded from the measured samples.
func (s *Server) collectMembers(sm *sampleSet, res *sim.Result, members map[int][]memberRequest, cut int64) {
	sm.reset()
	sm.dispatched, sm.makespan = len(res.Tasks), res.Cycles
	for _, task := range res.Tasks {
		ms := members[task.ID]
		sm.requests += len(ms)
		if task.Batch > 1 || len(ms) > 1 {
			sm.cnnBatches++
			sm.cnnMembers += len(ms)
		}
		for _, m := range ms {
			if m.arrival < cut {
				continue
			}
			lat := task.Completion - m.arrival
			sm.latencies = append(sm.latencies, s.cfg.Millis(lat))
			ntt := float64(lat) / float64(m.isolated)
			sm.ntts = append(sm.ntts, ntt)
			if ntt > 4 {
				sm.violated++
			}
		}
	}
}

// memberStats derives per-request statistics from a batched run.
func (s *Server) memberStats(res *sim.Result, members map[int][]memberRequest, cut int64) (BatchStats, error) {
	var sm sampleSet
	var sorted []float64
	s.collectMembers(&sm, res, members, cut)
	return s.statsOf(&sm, &sorted)
}
