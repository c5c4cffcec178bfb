package serving

// telemetry.go wires the internal/telemetry layer into the streaming
// node session. The recording hooks live on the hot paths (Submit,
// route, failNPU) guarded by nil checks so an untraced node pays
// nothing; everything here is the cold half — deriving completion
// events from the backends' memoized simulations, sampling the fleet on
// the autoscale tick, and breaking the node statistics down per tier.
// All of it runs on the virtual clock, so telemetry output replays
// byte-identically with the stream (telemetry_test.go locks that in).

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// tracer answers the attached event tracer, nil when tracing is off.
func (ns *NodeSession) tracer() *telemetry.Tracer {
	if ns.trace == nil {
		return nil
	}
	return ns.trace.Tracer
}

// recorder answers the attached tick recorder, nil when sampling is off.
func (ns *NodeSession) recorder() *telemetry.Recorder {
	if ns.trace == nil {
		return nil
	}
	return ns.trace.Recorder
}

// tierName answers backend i's hardware-tier name, "" on homogeneous
// fleets.
func (ns *NodeSession) tierName(i int) string {
	if ns.tiers == nil {
		return ""
	}
	return ns.tiers[ns.tierOf[i]].Name
}

// tierSym answers backend i's pre-interned tier Sym (the zero Sym —
// the empty string — on homogeneous fleets): the hot recording path's
// tierName.
func (ns *NodeSession) tierSym(i int) telemetry.Sym {
	if ns.tiers == nil {
		return 0
	}
	return ns.tierSyms[ns.tierOf[i]]
}

// traceSubmit gives t the node's next trace request ID and records its
// submit edge at its arrival: routed submissions and closed-loop client
// requests alike.
func (ns *NodeSession) traceSubmit(tr *telemetry.Tracer, t *workload.Task) {
	t.TraceID = ns.traceNext
	ns.traceNext++
	tr.RecordSubmit(t.Arrival, t.TraceID, ns.modelSym(tr, t))
}

// modelSym answers the Sym for t's model name. Generator-built tasks
// carry a small 1-based ModelID, so the steady-state lookup is one
// slice index; the first sight of each model (and any task built
// outside a Generator, ModelID 0) interns the name string directly.
func (ns *NodeSession) modelSym(tr *telemetry.Tracer, t *workload.Task) telemetry.Sym {
	id := t.ModelID
	if id > 0 && id < len(ns.modelSyms) {
		if sym := ns.modelSyms[id]; sym != 0 {
			return sym
		}
	}
	sym := tr.InternNote(t.Model)
	if id > 0 {
		for len(ns.modelSyms) <= id {
			ns.modelSyms = append(ns.modelSyms, 0)
		}
		ns.modelSyms[id] = sym
	}
	return sym
}

// Telemetry answers the node's attached telemetry handle, nil when
// tracing is disabled — the control plane's accessor.
func (ns *NodeSession) Telemetry() *telemetry.Trace { return ns.trace }

// completionRec is one simulated completion a traced backend retains:
// enough to derive the request's complete event without re-touching the
// simulator (the submitted request carries the trace ID).
type completionRec struct {
	req       int
	cycle     int64
	latencyMS float64
	serviceMS float64
}

// retainCompletions records one completion per request — the completed
// tasks of a refresh, finished live or projected, in submission order —
// sorted by (cycle, request) so the derived event order never depends on
// simulator internals. Overwritten wholesale on every refresh: a
// projected completion can still move as new arrivals compete for the
// NPU, and a reclaim shrinks the stream.
func (ss *Session) retainCompletions(tasks []*sched.Task) {
	ss.completions = ss.completions[:0]
	for _, t := range tasks {
		lat := ss.srv.cfg.Millis(t.Turnaround())
		svc := lat
		if ntt := t.NTT(); ntt > 0 {
			svc = lat / ntt
		}
		ss.completions = append(ss.completions, completionRec{
			req:       ss.reqs[t.ID].TraceID,
			cycle:     t.Completion,
			latencyMS: lat,
			serviceMS: svc,
		})
	}
	sort.Slice(ss.completions, func(i, j int) bool {
		a, b := ss.completions[i], ss.completions[j]
		if a.cycle != b.cycle {
			return a.cycle < b.cycle
		}
		return a.req < b.req
	})
}

// TraceEvents assembles the node's merged trace: the tracer's recorded
// lifecycle events plus one completion event per simulated request,
// sorted by cycle and sequence-stamped under telemetry.MergeEvents'
// contract (recorded events first at equal cycles). Calling it
// refreshes every dirty backend — completion latency only exists at
// simulation time, and a request still in flight completes at its
// projected cycle. Batched backends (SessionConfig.Window > 0) retain
// no completions; their requests trace submit/route edges only. The
// trace is built in one slice of exactly its length.
func (ns *NodeSession) TraceEvents() ([]telemetry.Event, error) {
	tr := ns.tracer()
	if tr == nil {
		return nil, fmt.Errorf("serving: no tracer attached (NodeConfig.Trace)")
	}
	if ns.closed {
		return nil, fmt.Errorf("serving: node session closed")
	}
	n := tr.Len()
	for i, b := range ns.backends {
		if b.Pending() == 0 {
			continue
		}
		if err := b.refresh(); err != nil {
			return nil, fmt.Errorf("serving: NPU %d: %w", i, err)
		}
		n += len(b.completions)
	}
	events := tr.AppendEvents(make([]telemetry.Event, 0, n))
	for i, b := range ns.backends {
		if b.Pending() == 0 {
			continue
		}
		tier := ns.tierName(i)
		for _, c := range b.completions {
			// Seq 1 marks a completion for the sort below; recorded
			// events come out of the tracer with Seq 0, and the stamping
			// pass overwrites both.
			events = append(events, telemetry.Event{
				Seq: 1, Cycle: c.cycle, Kind: telemetry.KindComplete,
				Req: c.req, NPU: i, Tier: tier,
				LatencyMS: c.latencyMS, ServiceMS: c.serviceMS,
			})
		}
	}
	// By cycle; at equal cycles recorded events first, in recording
	// order, then completions by request and backend.
	slices.SortStableFunc(events, func(a, b telemetry.Event) int {
		if c := cmp.Compare(a.Cycle, b.Cycle); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Seq, b.Seq); c != 0 || a.Seq == 0 {
			return c
		}
		return cmp.Or(cmp.Compare(a.Req, b.Req), cmp.Compare(a.NPU, b.NPU))
	})
	// The hot recording path skips the cycle→ms conversion; fill it here.
	for i := range events {
		events[i].Seq = i
		events[i].AtMS = ns.srv.cfg.Millis(events[i].Cycle)
	}
	return events, nil
}

// sampleTick captures one fleet metric sample at autoscale tick `at`,
// before the scaler's decision applies. est/window/estViolations come
// from the tick-window block the scaler already computed.
func (ns *NodeSession) sampleTick(rec *telemetry.Recorder, at int64, est float64, window, estViolations int) {
	s := telemetry.TickSample{
		Cycle: at, AtMS: ns.srv.cfg.Millis(at),
		Fleet:    ns.state.Active(),
		EstP95MS: est, Window: window, EstViolations: estViolations,
	}
	tickCycles := ns.scale.tickCycles
	completed := 0
	npus := make([]telemetry.NPUSample, len(ns.backends))
	for i := range ns.backends {
		b := ns.view(i, at)
		v := telemetry.NPUSample{NPU: i, Tier: b.Tier, State: b.State, Speed: b.Speed,
			InFlight: b.InFlight, BacklogMS: b.BacklogMS, Routed: b.Routed}
		if !ns.state.Failed(i) {
			// Fluid utilization since the last tick: the idle share is how
			// far the backend's free horizon trails the tick instant.
			idle := at - ns.state.FreeAt(i)
			if idle < 0 {
				idle = 0
			}
			if idle > tickCycles {
				idle = tickCycles
			}
			v.UtilFrac = 1 - float64(idle)/float64(tickCycles)
		}
		completed += b.Routed - b.InFlight
		npus[i] = v
	}
	s.NPUs = npus
	if ns.tiers != nil {
		gauges := make([]telemetry.TierGauge, len(ns.tiers))
		for t := range ns.tiers {
			gauges[t].Tier = ns.tiers[t].Name
		}
		for i, v := range npus {
			t := ns.tierOf[i]
			if v.State == "active" {
				gauges[t].Active++
			}
			gauges[t].InFlight += v.InFlight
			gauges[t].BacklogMS += v.BacklogMS
		}
		s.Tiers = gauges
	}
	s.Completions = completed - ns.lastCompleted
	ns.lastCompleted = completed
	s.Reclaims = ns.reclaims - ns.lastReclaims
	ns.lastReclaims = ns.reclaims
	rec.Record(s)
}

// TierStats is one hardware tier's slice of the node statistics.
type TierStats struct {
	// Tier is the tier name, in template order.
	Tier string
	// NPUs counts the backends ever assigned to the tier, including
	// retired and failed ones.
	NPUs int
	// Requests and Measured count the tier's routed and post-warm-up
	// requests.
	Requests, Measured int
	// MeanLatencyMS, P50LatencyMS and P95LatencyMS summarize the tier's
	// measured turnaround.
	MeanLatencyMS, P50LatencyMS, P95LatencyMS float64
	// SLOViolationFrac is the tier's share of measured requests above
	// the scaler's latency SLO; zero without a scaler.
	SLOViolationFrac float64
}

// tierStats derives the per-tier breakdown from the tier-partitioned
// sample sets Stats merged (ns.tierSets), sorting each tier's latencies
// once in the node's scratch buffer.
func (ns *NodeSession) tierStats() []TierStats {
	out := make([]TierStats, len(ns.tiers))
	for t := range ns.tiers {
		ts := TierStats{Tier: ns.tiers[t].Name}
		for i := range ns.backends {
			if ns.tierOf[i] == t {
				ts.NPUs++
			}
		}
		sm := &ns.tierSets[t]
		ts.Requests = sm.requests
		ts.Measured = len(sm.latencies)
		if ts.Measured > 0 {
			ts.MeanLatencyMS = stats.Mean(sm.latencies)
			ns.sorted = stats.SortedCopy(ns.sorted, sm.latencies)
			ts.P50LatencyMS = guardPercentile(stats.PercentileSorted(ns.sorted, 50), ts.MeanLatencyMS)
			ts.P95LatencyMS = guardPercentile(stats.PercentileSorted(ns.sorted, 95), ts.P50LatencyMS)
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
