package telemetry

// export.go is the aggregation half of the package: the merge order of
// the recorded event stream and the derived completions, and the
// decomposition of per-request latency into queue/service/stretch
// shares (jsonl.go encodes the result as JSON Lines). All accumulation here
// runs in sorted order — per-request state is keyed in a map but folded
// in request-ID order — so the derived numbers are bit-identical across
// replays (the floatorder premalint analyzer guards the pattern).

import "sort"

// MergeEvents folds the tracer's recorded stream and the derived
// completion events into one trace sorted by cycle (recorded events
// precede completions at equal cycles; the inputs' internal order is
// preserved) and stamps each event's Seq with its sorted index. Both
// inputs may share no ordering assumptions beyond being individually
// deterministic. It is the reference order: serving.NodeSession.TraceEvents,
// the export path, assembles the same trace in one exact-size slice.
//
//premalint:ignore testonly the reference serving's TestTraceEventsOneCopy holds NodeSession.TraceEvents to
func MergeEvents(recorded, completions []Event) []Event {
	out := make([]Event, 0, len(recorded)+len(completions))
	out = append(out, recorded...)
	out = append(out, completions...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	for i := range out {
		out[i].Seq = i
	}
	return out
}

// RequestTrace is one request's derived lifecycle summary.
type RequestTrace struct {
	// Req is the trace request ID.
	Req int `json:"req"`
	// NPU and Tier identify the backend that completed the request.
	NPU  int    `json:"npu"`
	Tier string `json:"tier,omitempty"`
	// LatencyMS is the realized turnaround.
	LatencyMS float64 `json:"latency_ms"`
	// QueueMS is the queueing share of the latency (latency minus
	// isolated service, clamped at zero).
	QueueMS float64 `json:"queue_ms"`
	// ServiceMS is the isolated-service share of the latency.
	ServiceMS float64 `json:"service_ms"`
	// StretchMS is the service time added by slowdown stretching: the
	// share of ServiceMS a nominal-speed backend would not have spent.
	StretchMS float64 `json:"stretch_ms"`
	// Reroutes counts failure reclaims the request survived.
	Reroutes int `json:"reroutes"`
	// Events counts the request's trace events.
	Events int `json:"events"`
}

// TraceSummary is the derived overview of a merged trace.
type TraceSummary struct {
	// Events is the merged trace's event count.
	Events int `json:"events"`
	// Requests counts distinct request IDs in the trace.
	Requests int `json:"requests"`
	// Completed counts requests with a completion event.
	Completed int `json:"completed"`
	// Reroutes counts reclaim events (failure re-routes).
	Reroutes int `json:"reroutes"`
	// Stretched counts requests that landed on a slowed backend at
	// least once.
	Stretched int `json:"stretched"`
	// MeanLatencyMS and MaxLatencyMS summarize completed requests.
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	MaxLatencyMS  float64 `json:"max_latency_ms"`
	// MeanQueueMS, MeanServiceMS and MeanStretchMS decompose the mean
	// latency into queue-wait, isolated service and slowdown-stretch
	// shares.
	MeanQueueMS   float64 `json:"mean_queue_ms"`
	MeanServiceMS float64 `json:"mean_service_ms"`
	MeanStretchMS float64 `json:"mean_stretch_ms"`
	// Worst holds the top-K worst-latency request traces, worst first.
	Worst []RequestTrace `json:"worst,omitempty"`
}

// Summarize derives the trace overview from a merged event stream,
// flagging the topK worst-latency completed requests (topK <= 0
// defaults to 5). A ring-truncated trace summarizes what survived.
func Summarize(events []Event, topK int) TraceSummary {
	if topK <= 0 {
		topK = 5
	}
	sum := TraceSummary{Events: len(events)}
	byReq := map[int]*RequestTrace{}
	completed := map[int]bool{}
	stretchFactor := map[int]float64{}
	everStretched := map[int]bool{}
	for _, e := range events {
		rt := byReq[e.Req]
		if rt == nil {
			rt = &RequestTrace{Req: e.Req}
			byReq[e.Req] = rt
		}
		rt.Events++
		switch e.Kind {
		case KindReclaim:
			rt.Reroutes++
			sum.Reroutes++
			// Leaving the failed backend sheds any stretch; the re-route
			// applies its own.
			delete(stretchFactor, e.Req)
		case KindStretch:
			stretchFactor[e.Req] = e.Factor
			everStretched[e.Req] = true
		case KindComplete:
			rt.NPU = e.NPU
			rt.Tier = e.Tier
			rt.LatencyMS = e.LatencyMS
			rt.ServiceMS = e.ServiceMS
			rt.QueueMS = e.LatencyMS - e.ServiceMS
			if rt.QueueMS < 0 {
				rt.QueueMS = 0
			}
			if f := stretchFactor[e.Req]; f > 1 {
				// A stretched service time is factor x nominal: the added
				// share is service * (1 - 1/factor).
				rt.StretchMS = e.ServiceMS * (1 - 1/f)
			}
			completed[e.Req] = true
		}
	}
	sum.Requests = len(byReq)
	sum.Completed = len(completed)
	// Fold the per-request traces in request-ID order so the float
	// accumulation is replay-stable regardless of map iteration order.
	ids := make([]int, 0, len(byReq))
	for id := range byReq {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	done := make([]RequestTrace, 0, len(completed))
	for _, id := range ids {
		rt := byReq[id]
		if everStretched[id] {
			sum.Stretched++
		}
		if !completed[id] {
			continue
		}
		sum.MeanLatencyMS += rt.LatencyMS
		sum.MeanQueueMS += rt.QueueMS
		sum.MeanServiceMS += rt.ServiceMS
		sum.MeanStretchMS += rt.StretchMS
		if rt.LatencyMS > sum.MaxLatencyMS {
			sum.MaxLatencyMS = rt.LatencyMS
		}
		done = append(done, *rt)
	}
	if n := len(done); n > 0 {
		sum.MeanLatencyMS /= float64(n)
		sum.MeanQueueMS /= float64(n)
		sum.MeanServiceMS /= float64(n)
		sum.MeanStretchMS /= float64(n)
	}
	sort.SliceStable(done, func(i, j int) bool {
		if done[i].LatencyMS != done[j].LatencyMS {
			return done[i].LatencyMS > done[j].LatencyMS
		}
		return done[i].Req < done[j].Req
	})
	if len(done) > topK {
		done = done[:topK]
	}
	sum.Worst = done
	return sum
}
