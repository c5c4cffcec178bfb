package serving

// stats_ref_test.go keeps the node statistics as they were derived before
// a poll sorted each sample set once in a kept scratch buffer: statsOfRef
// and tierStatsRef copy and sort the whole set for every percentile, and
// refNodeStats merges fresh sets on every call. The tests below pin the
// kept-buffer path to that reference bit for bit, on random sample sets
// and at every poll of a stepped node, and bound what a poll allocates as
// its history grows.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/npu"
	"repro/internal/stats"
	"repro/internal/workload"
)

// statsOfRef is statsOf before the sort-once change: every percentile
// copies and sorts the latencies.
func statsOfRef(s *Server, sm *sampleSet) (BatchStats, error) {
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

// tierStatsRef is tierStats before the sort-once change.
func tierStatsRef(ns *NodeSession, sets []sampleSet) []TierStats {
	out := make([]TierStats, len(ns.tiers))
	for t := range ns.tiers {
		ts := TierStats{Tier: ns.tiers[t].Name}
		for i := range ns.backends {
			if ns.tierOf[i] == t {
				ts.NPUs++
			}
		}
		sm := &sets[t]
		ts.Requests = sm.requests
		ts.Measured = len(sm.latencies)
		if ts.Measured > 0 {
			ts.MeanLatencyMS = stats.Mean(sm.latencies)
			ts.P50LatencyMS = guardPercentile(stats.Percentile(sm.latencies, 50), ts.MeanLatencyMS)
			ts.P95LatencyMS = guardPercentile(stats.Percentile(sm.latencies, 95), ts.P50LatencyMS)
			if ns.scale != nil {
				violated := 0
				for _, l := range sm.latencies {
					if l > ns.scale.sloMS {
						violated++
					}
				}
				ts.SLOViolationFrac = float64(violated) / float64(ts.Measured)
			}
		}
		out[t] = ts
	}
	return out
}

// refNodeStats derives the node's statistics from its backends' current
// samples the way Stats did before it kept buffers: fresh merged and
// per-tier sets, and the reference derivations above. The backends must
// already be refreshed.
func refNodeStats(ns *NodeSession) (NodeStats, error) {
	out := NodeStats{PerNPU: make([]BatchStats, len(ns.backends))}
	var merged sampleSet
	var tierSets []sampleSet
	if ns.tiers != nil {
		tierSets = make([]sampleSet, len(ns.tiers))
	}
	for i, b := range ns.backends {
		if b.Pending() == 0 {
			continue
		}
		merged.merge(&b.samples)
		if tierSets != nil {
			tierSets[ns.tierOf[i]].merge(&b.samples)
		}
		if st, err := statsOfRef(ns.srv, &b.samples); err == nil {
			out.PerNPU[i] = st
		} else {
			out.PerNPU[i].Requests = b.samples.requests
			out.PerNPU[i].Dispatched = b.samples.dispatched
		}
	}
	agg, err := statsOfRef(ns.srv, &merged)
	if err != nil {
		return NodeStats{}, err
	}
	out.BatchStats = agg
	if ns.scale != nil {
		out.Scaling = ns.scalingStats(&merged)
	}
	if tierSets != nil {
		out.Tiers = tierStatsRef(ns, tierSets)
	}
	return out, nil
}

// checkPollMatchesReference polls the node past its memo and checks the
// answer against refNodeStats over the samples the poll refreshed.
func checkPollMatchesReference(t *testing.T, ns *NodeSession, label string) {
	t.Helper()
	ns.statsValid = false
	got, gotErr := ns.Stats()
	want, wantErr := refNodeStats(ns)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: Stats error %v, reference error %v", label, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Stats diverge from the copy-per-percentile reference:\n got  %+v\n want %+v", label, got, want)
	}
}

// randomSamples draws one backend's sample set: usually a random-size
// set whose latencies repeat a few values, sometimes a single sample, no
// sample at all (every request inside the warm-up window), or a backend
// that served nothing (nil).
func randomSamples(rng *rand.Rand) *sampleSet {
	switch rng.IntN(8) {
	case 0:
		return nil
	case 1:
		return &sampleSet{requests: 1 + rng.IntN(5), dispatched: 1, makespan: rng.Int64N(1 << 24)}
	}
	n := 1
	if rng.IntN(4) != 0 {
		n = 1 + rng.IntN(300)
	}
	pool := make([]float64, 1+rng.IntN(n))
	for i := range pool {
		pool[i] = rng.ExpFloat64() * 5
	}
	sm := &sampleSet{makespan: rng.Int64N(1 << 24)}
	for i := 0; i < n; i++ {
		sm.latencies = append(sm.latencies, pool[rng.IntN(len(pool))])
		ntt := 1 + rng.ExpFloat64()*2
		sm.ntts = append(sm.ntts, ntt)
		if ntt > 4 {
			sm.violated++
		}
	}
	sm.requests = n + rng.IntN(20)
	sm.dispatched = sm.requests
	if rng.IntN(3) == 0 {
		sm.cnnBatches = 1 + rng.IntN(n)
		sm.cnnMembers = sm.cnnBatches + rng.IntN(n)
	}
	return sm
}

// TestStatsMatchReferenceOnRandomSets installs random sample sets in a
// tiered, autoscaled node's backends, poll after poll, and checks every
// BatchStats, TierStats and ScalingStats against the reference. The sets
// grow and shrink between polls, so the node's kept merged, per-tier and
// scratch buffers are reused over stale contents of every size.
func TestStatsMatchReferenceOnRandomSets(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "50%:fast,30%:slow,20%:ancient@4")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 6, Fleet: tiers, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true},
		Autoscale: &AutoscaleConfig{Scaler: "queue-depth", SLO: 8 * time.Millisecond,
			MinNPUs: 2, MaxNPUs: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(20, 3)
	for poll := 0; poll < 400; poll++ {
		for _, b := range ns.backends {
			sm := randomSamples(rng)
			if sm == nil {
				b.reqs, b.count, b.samples = nil, 0, sampleSet{}
				continue
			}
			b.reqs, b.count, b.samples = make([]*workload.Task, 1), 1, *sm
			b.dirty, b.statsValid = false, false
		}
		ns.submitted = poll + 1
		if poll%7 == 0 {
			// A tier with no served backend at all: every backend of the
			// first tier (the first three) serves nothing this poll.
			for _, b := range ns.backends[:3] {
				b.reqs, b.count, b.samples = nil, 0, sampleSet{}
			}
		}
		checkPollMatchesReference(t, ns, fmt.Sprintf("poll %d", poll))
	}
}

// TestPollStatsMatchReference polls a tiered, autoscaled node through
// chaos — a slowdown, a failure, a cordon and a restore — after every
// 1 ms step, and checks each poll against the reference derivation.
func TestPollStatsMatchReference(t *testing.T) {
	s := newServer(t)
	tiers, err := FleetFromTemplate(npu.DefaultConfig(), "70%:fast,30%:slow")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.OpenNode(NodeConfig{
		NPUs: 4, Fleet: tiers, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true},
		Autoscale: &AutoscaleConfig{Scaler: "queue-depth", SLO: 8 * time.Millisecond,
			MinNPUs: 2, MaxNPUs: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := func(n int) int64 { return s.cfg.Cycles(time.Duration(n) * time.Millisecond) }
	for _, op := range []struct {
		at int
		op NodeOp
	}{
		{6, NodeOp{Kind: SlowNPU, NPU: 0, Factor: 3}},
		{14, NodeOp{Kind: FailNPU, NPU: 1}},
		{20, NodeOp{Kind: CordonNPU, NPU: 2}},
		{28, NodeOp{Kind: RestoreNPU, NPU: 0}},
		{34, NodeOp{Kind: UncordonNPU, NPU: 2}},
	} {
		if err := ns.ScheduleCycle(ms(op.at), op.op); err != nil {
			t.Fatal(err)
		}
	}
	st := &stepper{ns: ns, stream: liveStream(t, s, 103, 5, 10*time.Millisecond, 3.5)}
	for step := 1; step <= 50; step++ {
		st.to(t, ms(step))
		if ns.Pending() > 0 {
			checkPollMatchesReference(t, ns, fmt.Sprintf("step %d ms", step))
		}
	}
	if ns.reclaims == 0 {
		t.Error("the failure reclaimed nothing")
	}
}

// TestPollAllocsIndependentOfHistory bounds what a poll allocates as its
// stream grows: a fixed 4-NPU PREMA node, fed 20 ms open-loop segments at
// load 3.2 and polled after each, allocates on average no more than
// twice as much per poll over polls 200–300 (about 7k–10.6k requests) as
// over polls 0–100. A poll that re-collects, merges or copies the whole
// history for every statistic fails this.
func TestPollAllocsIndependentOfHistory(t *testing.T) {
	s := newServer(t)
	ns := openNode(t, s, 4, cluster.LeastWork, SessionConfig{Policy: "PREMA", Preemptive: true})
	const (
		polls   = 301
		segment = 20 * time.Millisecond
	)
	rng := workload.RNGFor(107, 0)
	bytes := make([]uint64, polls)
	var before, after runtime.MemStats
	for i := range bytes {
		tasks, err := s.Generate(Spec{
			Horizon: segment, Offset: time.Duration(i) * segment, OfferedLoad: 3.2,
			Models: []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"}, BatchSizes: []int{1},
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range tasks {
			if err := ns.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&before)
		if _, err := ns.Stats(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
	}
	mean := func(xs []uint64) float64 {
		var sum uint64
		for _, x := range xs {
			sum += x
		}
		return float64(sum) / float64(len(xs))
	}
	early, late := mean(bytes[:100]), mean(bytes[200:300])
	t.Logf("%d requests; mean bytes per poll: polls 0-100 %.0f, polls 200-300 %.0f (%.2fx)",
		ns.Pending(), early, late, late/early)
	if late > 2*early {
		t.Errorf("a poll at 7k-10.6k requests allocates %.0f B, %.2fx the %.0f B of one at the first 3.5k: polls grow with history",
			late, late/early, early)
	}
}
