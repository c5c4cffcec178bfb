package ctl

// snapshot.go is the point-in-time metrics view: fleet composition,
// tick-window latency percentiles from the node's fluid-estimate ring
// (no simulation), the realized SLO-violation fraction (from the node's
// statistics: each changed backend admits its new arrivals into its live
// simulator and projects only the work still in flight), and the tail
// of the scaling timeline. Snapshots serialize with the clock loop on
// the plane mutex, so a concurrent snapshot always observes the fleet
// between virtual steps.

import (
	"fmt"
	"strings"

	"repro/internal/serving"
	"repro/internal/stats"
)

// NPUSnapshot is one backend's row in a snapshot.
type NPUSnapshot struct {
	NPU       int     `json:"npu"`
	Tier      string  `json:"tier,omitempty"` // hardware tier; empty on homogeneous fleets
	State     string  `json:"state"`
	Speed     float64 `json:"speed"`
	InFlight  int     `json:"in_flight"`
	BacklogMS float64 `json:"backlog_ms"`
	Routed    int     `json:"routed"`
}

// TierSnapshot aggregates one hardware tier's slice of a snapshot.
// Only heterogeneous fleets carry tier rows, so homogeneous snapshots
// keep their exact pre-tier shape.
type TierSnapshot struct {
	Tier      string  `json:"tier"`
	Active    int     `json:"active"`
	InFlight  int     `json:"in_flight"`
	BacklogMS float64 `json:"backlog_ms"`
	// P95LatencyMS and SLOViolationFrac are the tier's realized slice of
	// the node statistics; zero until the tier's requests clear the
	// warm-up window (or without a scaler, for the violation fraction).
	P95LatencyMS     float64 `json:"p95_latency_ms,omitempty"`
	SLOViolationFrac float64 `json:"slo_violation_frac,omitempty"`
}

// Snapshot is the plane's point-in-time metrics view.
type Snapshot struct {
	// AtMS is the virtual instant the snapshot was taken at.
	AtMS float64 `json:"at_ms"`
	// Paused reports whether paced advancement is stopped.
	Paused bool `json:"paused"`
	// Load is the current offered load per NPU-capacity.
	Load float64 `json:"offered_load"`
	// Requests is how many arrivals have been routed so far.
	Requests int `json:"requests"`
	// Active and Fleet describe the backend set.
	Active int           `json:"active"`
	Fleet  []NPUSnapshot `json:"fleet"`
	// Tiers aggregates the fleet per hardware tier; nil on homogeneous
	// fleets.
	Tiers []TierSnapshot `json:"tiers,omitempty"`
	// TickP50MS/P95/P99 are percentiles over the most recent fluid
	// latency estimates (the tick window's signal); TickWindow is the
	// sample count they summarize, 0 when no traffic has flowed yet.
	TickP50MS  float64 `json:"tick_p50_ms"`
	TickP95MS  float64 `json:"tick_p95_ms"`
	TickP99MS  float64 `json:"tick_p99_ms"`
	TickWindow int     `json:"tick_window"`
	// SLOLatencyMS and SLOViolationFrac report realized latency against
	// the scaler's target; both zero without a scaler or before any
	// request clears the warm-up window (see StatsNote).
	SLOLatencyMS     float64 `json:"slo_ms,omitempty"`
	SLOViolationFrac float64 `json:"slo_violation_frac,omitempty"`
	// StatsNote explains an absent realized-statistics section (no
	// traffic yet, everything still inside warm-up).
	StatsNote string `json:"stats_note,omitempty"`
	// ScalingTail is the most recent fleet-timeline events (at most 5).
	ScalingTail []ReportEvent `json:"scaling_tail"`
}

// Snapshot takes a point-in-time metrics snapshot. Safe to call
// concurrently with a pacing loop or a running script.
func (p *Plane) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked(p.now)
}

// snapshotLocked builds the snapshot at virtual cycle at; the caller
// holds the mutex.
func (p *Plane) snapshotLocked(at int64) Snapshot {
	s := Snapshot{
		AtMS:     p.millis(at),
		Paused:   p.paused,
		Load:     p.load,
		Requests: p.offered,
	}
	fleet := p.ns.Fleet()
	for _, v := range fleet {
		if v.State == "active" {
			s.Active++
		}
		s.Fleet = append(s.Fleet, NPUSnapshot{
			NPU: v.NPU, Tier: v.Tier, State: v.State, Speed: v.Speed,
			InFlight: v.InFlight, BacklogMS: v.BacklogMS, Routed: v.Routed,
		})
	}
	p.estScratch = p.ns.EstimateWindow(p.estScratch[:0])
	if n := len(p.estScratch); n > 0 {
		s.TickWindow = n
		// The scratch window is re-filled on the next snapshot, so its
		// order is free to give away to the in-place sort.
		s.TickP50MS = stats.PercentileInPlace(p.estScratch, 50)
		s.TickP95MS = stats.PercentileInPlace(p.estScratch, 95)
		s.TickP99MS = stats.PercentileInPlace(p.estScratch, 99)
	}
	var stTiers []serving.TierStats
	if st, err := p.realizedStats(); err != nil {
		s.StatsNote = err.Error()
	} else {
		if st.Scaling != nil {
			s.SLOLatencyMS = st.Scaling.SLOLatencyMS
			s.SLOViolationFrac = st.Scaling.SLOViolationFrac
		}
		stTiers = st.Tiers
	}
	s.Tiers = tierSnapshots(fleet, stTiers)
	events := p.ns.Timeline()
	tail := events
	if len(tail) > 5 {
		tail = tail[len(tail)-5:]
	}
	s.ScalingTail = p.reportEvents(tail)
	return s
}

// tierSnapshots aggregates the per-NPU views per hardware tier, in
// first-assigned order, grafting on the node's realized per-tier
// statistics when it has them. Nil on homogeneous fleets.
func tierSnapshots(fleet []serving.BackendView, tiers []serving.TierStats) []TierSnapshot {
	if len(fleet) == 0 || fleet[0].Tier == "" {
		return nil
	}
	idx := map[string]int{}
	var out []TierSnapshot
	for _, v := range fleet {
		i, ok := idx[v.Tier]
		if !ok {
			i = len(out)
			idx[v.Tier] = i
			out = append(out, TierSnapshot{Tier: v.Tier})
		}
		if v.State == "active" {
			out[i].Active++
		}
		out[i].InFlight += v.InFlight
		out[i].BacklogMS += v.BacklogMS
	}
	for _, ts := range tiers {
		if i, ok := idx[ts.Tier]; ok {
			out[i].P95LatencyMS = ts.P95LatencyMS
			out[i].SLOViolationFrac = ts.SLOViolationFrac
		}
	}
	return out
}

// realizedStats answers the node's realized statistics, or a
// deterministic explanation of why there are none yet.
func (p *Plane) realizedStats() (serving.NodeStats, error) {
	if p.offered == 0 {
		return serving.NodeStats{}, fmt.Errorf("no traffic yet")
	}
	return p.ns.Stats()
}

// reportEvents converts node timeline events to report entries.
func (p *Plane) reportEvents(events []serving.NodeEvent) []ReportEvent {
	out := make([]ReportEvent, len(events))
	for i, e := range events {
		out[i] = ReportEvent{
			AtMS: p.millis(e.Cycle), Kind: e.Kind, NPU: e.NPU,
			Delta: e.Delta, Fleet: e.Active, Note: e.Note,
		}
	}
	return out
}

// Render formats the snapshot as a deterministic text block.
func (s Snapshot) Render() string {
	var b strings.Builder
	state := "running"
	if s.Paused {
		state = "paused"
	}
	fmt.Fprintf(&b, "snapshot @ %.2fms (%s, load %g): %d requests, %d/%d active\n",
		s.AtMS, state, s.Load, s.Requests, s.Active, len(s.Fleet))
	for _, v := range s.Fleet {
		fmt.Fprintf(&b, "  npu%-3d %-9s x%-5g in-flight %-4d backlog %.2fms routed %d\n",
			v.NPU, v.State, v.Speed, v.InFlight, v.BacklogMS, v.Routed)
	}
	for _, t := range s.Tiers {
		fmt.Fprintf(&b, "  tier %-8s %d active  in-flight %-4d backlog %.2fms",
			t.Tier, t.Active, t.InFlight, t.BacklogMS)
		if t.P95LatencyMS > 0 {
			fmt.Fprintf(&b, "  p95 %.2fms", t.P95LatencyMS)
		}
		if t.SLOViolationFrac > 0 {
			fmt.Fprintf(&b, "  slo-viol %.1f%%", t.SLOViolationFrac*100)
		}
		b.WriteByte('\n')
	}
	if s.TickWindow > 0 {
		fmt.Fprintf(&b, "tick window (%d samples): p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
			s.TickWindow, s.TickP50MS, s.TickP95MS, s.TickP99MS)
	}
	if s.StatsNote != "" {
		fmt.Fprintf(&b, "realized stats: %s\n", s.StatsNote)
	} else if s.SLOLatencyMS > 0 {
		fmt.Fprintf(&b, "slo: %.1fms target, %.1f%% of measured requests violated\n",
			s.SLOLatencyMS, s.SLOViolationFrac*100)
	}
	if len(s.ScalingTail) > 0 {
		b.WriteString("timeline tail:\n")
		for _, e := range s.ScalingTail {
			label := e.Kind
			if e.NPU >= 0 {
				label = fmt.Sprintf("%s npu%d", e.Kind, e.NPU)
			}
			if e.Delta != 0 {
				label = fmt.Sprintf("%s %+d", label, e.Delta)
			}
			if e.Note != "" {
				label = fmt.Sprintf("%s (%s)", label, e.Note)
			}
			fmt.Fprintf(&b, "  %9.2fms  %d NPUs  %s\n", e.AtMS, e.Fleet, label)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
