package ctl

// telemetry.go is the plane's observability surface over the node's
// attached telemetry handle: the `trace` and `metrics` commands and the
// JSON exports behind the /trace and /metrics HTTP endpoints. All of it
// is read-only over state the node session already keeps on the virtual
// clock, so the renderings replay byte-identically with the stream.

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/telemetry"
)

// ErrNoTelemetry marks trace/metrics requests against a plane whose
// node has no telemetry attached (premactl -trace, or
// serving.NodeConfig.Trace when embedding).
var ErrNoTelemetry = errors.New("ctl: telemetry not attached (run premactl -trace)")

// TraceExport is the /trace JSON shape: the derived summary plus the
// full merged event stream.
type TraceExport struct {
	Summary telemetry.TraceSummary `json:"summary"`
	Events  []telemetry.Event      `json:"events"`
}

// TraceExport assembles the node's merged per-request trace and its
// summary. It errors with ErrNoTelemetry when no tracer is attached.
func (p *Plane) TraceExport() (*TraceExport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.traceExportLocked()
}

// traceExportLocked builds the trace export; the caller holds the mutex.
func (p *Plane) traceExportLocked() (*TraceExport, error) {
	events, err := p.traceEventsLocked()
	if err != nil {
		return nil, err
	}
	return &TraceExport{Summary: telemetry.Summarize(events, 5), Events: events}, nil
}

// TraceEvents assembles the node's merged per-request trace without
// TraceExport's summary — what a run that exports the trace itself
// needs. It errors with ErrNoTelemetry when no tracer is attached.
func (p *Plane) TraceEvents() ([]telemetry.Event, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.traceEventsLocked()
}

// traceEventsLocked assembles the merged trace; the caller holds the
// mutex.
func (p *Plane) traceEventsLocked() ([]telemetry.Event, error) {
	if tr := p.ns.Telemetry(); tr == nil || tr.Tracer == nil {
		return nil, ErrNoTelemetry
	}
	return p.ns.TraceEvents()
}

// MetricSamples answers the recorder's tick-metric series. It errors
// with ErrNoTelemetry when no recorder is attached.
func (p *Plane) MetricSamples() ([]telemetry.TickSample, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metricSamplesLocked()
}

// metricSamplesLocked reads the recorder; the caller holds the mutex.
func (p *Plane) metricSamplesLocked() ([]telemetry.TickSample, error) {
	tr := p.ns.Telemetry()
	if tr == nil || tr.Recorder == nil {
		return nil, ErrNoTelemetry
	}
	return tr.Recorder.Samples(), nil
}

// renderTrace is the `trace` command: the summary plus the worst
// requests, as deterministic text.
func (p *Plane) renderTrace() (string, error) {
	exp, err := p.traceExportLocked()
	if err != nil {
		return "", err
	}
	s := exp.Summary
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events over %d requests (%d completed, %d re-routed, %d stretched)\n",
		s.Events, s.Requests, s.Completed, s.Reroutes, s.Stretched)
	if s.Completed > 0 {
		fmt.Fprintf(&b, "latency: mean %.2fms  max %.2fms  (queue %.2fms + service %.2fms + stretch %.2fms mean)\n",
			s.MeanLatencyMS, s.MaxLatencyMS, s.MeanQueueMS, s.MeanServiceMS, s.MeanStretchMS)
	}
	if len(s.Worst) > 0 {
		b.WriteString("worst requests:\n")
		for _, w := range s.Worst {
			fmt.Fprintf(&b, "  req%-5d npu%-3d %-9s %.2fms (queue %.2fms, service %.2fms",
				w.Req, w.NPU, tierLabel(w.Tier), w.LatencyMS, w.QueueMS, w.ServiceMS)
			if w.StretchMS > 0 {
				fmt.Fprintf(&b, ", stretch %.2fms", w.StretchMS)
			}
			if w.Reroutes > 0 {
				fmt.Fprintf(&b, ", %d re-routes", w.Reroutes)
			}
			b.WriteString(")\n")
		}
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// tierLabel pads the homogeneous case so traced homogeneous and tiered
// fleets line up the same columns.
func tierLabel(tier string) string {
	if tier == "" {
		return "-"
	}
	return tier
}

// renderMetrics is the `metrics` command: the most recent tick samples
// (at most 5), as deterministic text.
func (p *Plane) renderMetrics() (string, error) {
	samples, err := p.metricSamplesLocked()
	if err != nil {
		return "", err
	}
	if len(samples) == 0 {
		return "no tick samples yet (the recorder samples on the autoscale tick)", nil
	}
	total := len(samples)
	tail := samples
	if len(tail) > 5 {
		tail = tail[len(tail)-5:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d tick samples; last %d:\n", total, len(tail))
	for _, s := range tail {
		fmt.Fprintf(&b, "  %9.2fms  fleet %-3d est-p95 %-8.2f window %-4d done %-4d reclaims %d\n",
			s.AtMS, s.Fleet, s.EstP95MS, s.Window, s.Completions, s.Reclaims)
		for _, g := range s.Tiers {
			fmt.Fprintf(&b, "             tier %-8s %d active  in-flight %-4d backlog %.2fms\n",
				g.Tier, g.Active, g.InFlight, g.BacklogMS)
		}
	}
	return strings.TrimRight(b.String(), "\n"), nil
}
