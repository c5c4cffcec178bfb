package ctl

// report.go is the run report: the one outcome model of every run the
// plane executes — a premactl session (Source "premactl") or a compiled
// declarative scenario (Source "scenario", internal/scenario), so
// dashboards and CI diffing consume a single shape regardless of which
// surface drove the fleet. JSON is the machine form; HTML is a
// self-contained single-file page in the stress-report style; Render is
// a scenario's ASCII transcript and Compact the `report` command's
// block. Every rendering is a pure function of the report's fields — no
// wall-clock timestamps anywhere — so a deterministic run exports
// byte-identical artifacts.

import (
	"encoding/json"
	"fmt"
	"html/template"
	"strings"

	"repro/internal/serving"
	"repro/internal/telemetry"
)

// ReportEvent is one fleet-timeline entry.
type ReportEvent struct {
	// AtMS is the virtual instant in milliseconds.
	AtMS float64 `json:"at_ms"`
	// Kind is "start", "scale", "drain", "fail", "slowdown", "restore",
	// "cordon" or "uncordon".
	Kind string `json:"kind"`
	// NPU is the target backend index; -1 for start and scale events.
	NPU int `json:"npu"`
	// Delta is the change in routable backends the event caused.
	Delta int `json:"delta"`
	// Fleet is the routable backend count after the event.
	Fleet int `json:"fleet"`
	// Note carries event detail (reclaimed count, slow factor).
	Note string `json:"note,omitempty"`
}

// label renders the event the way the text views show it: kind,
// target, fleet delta and note, as in "fail npu1 -1 (reclaimed 3)".
func (e ReportEvent) label() string {
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
	return label
}

// FleetSummary summarizes the fleet over the run.
type FleetSummary struct {
	// Start is the initial backend count.
	Start int `json:"start"`
	// MeanNPUs is the time-weighted mean routable fleet size.
	MeanNPUs float64 `json:"mean_npus"`
	// PeakNPUs is the largest routable size reached.
	PeakNPUs int `json:"peak_npus"`
}

// LatencySummary is the realized steady-state latency view.
type LatencySummary struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// SLOSummary reports realized latency against the scaler's target.
type SLOSummary struct {
	TargetMS      float64 `json:"target_ms"`
	ViolationFrac float64 `json:"violation_frac"`
}

// TierSummary is one hardware tier's realized slice of the run; only
// heterogeneous fleets carry tier rows.
type TierSummary struct {
	// Tier is the tier name, in template order.
	Tier string `json:"tier"`
	// NPUs counts the backends ever assigned to the tier.
	NPUs int `json:"npus"`
	// Requests and Measured count the tier's routed and post-warm-up
	// requests.
	Requests int `json:"requests"`
	Measured int `json:"measured"`
	// MeanLatencyMS, P50MS and P95MS summarize the tier's measured
	// turnaround.
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	// SLOViolationFrac is the tier's share of measured requests over the
	// scaler's latency SLO; zero without a scaler.
	SLOViolationFrac float64 `json:"slo_violation_frac"`
}

// SeriesPoint is one autoscale-tick sample on the report's metric
// timeline.
type SeriesPoint struct {
	AtMS float64 `json:"at_ms"`
	// Fleet is the routable backend count at the tick, before the
	// scaler's decision applied.
	Fleet int `json:"fleet"`
	// EstP95MS is the tick window's fluid P95 latency estimate.
	EstP95MS float64 `json:"est_p95_ms"`
	// Completions is the number of requests whose estimated work drained
	// during the tick.
	Completions int `json:"completions"`
}

// NPUSeries is one backend's utilization strip over the tick series.
type NPUSeries struct {
	NPU  int    `json:"npu"`
	Tier string `json:"tier,omitempty"`
	// Util is the backend's fluid utilization per tick; -1 marks ticks
	// before the backend was spun up.
	Util []float64 `json:"util"`
}

// Series is the tick-sampled metric timeline of a run with telemetry
// attached (telemetry.Recorder): one point per autoscale tick plus one
// utilization strip per backend. Nil without telemetry or a scaler —
// the recorder samples on the autoscale tick.
type Series struct {
	Points      []SeriesPoint `json:"points"`
	Utilization []NPUSeries   `json:"utilization"`
}

// sparkRunes are the eighth-block glyphs the sparkline renderings use.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// LatencySpark renders the series' estimated-P95 timeline as a Unicode
// sparkline, scaled to the series maximum.
func (s *Series) LatencySpark() string {
	max := 0.0
	for _, p := range s.Points {
		if p.EstP95MS > max {
			max = p.EstP95MS
		}
	}
	var b strings.Builder
	for _, p := range s.Points {
		i := 0
		if max > 0 {
			i = int(p.EstP95MS/max*float64(len(sparkRunes)-1) + 0.5)
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// MaxEstP95MS is the series' peak estimated P95 — the sparkline's scale.
func (s *Series) MaxEstP95MS() float64 {
	max := 0.0
	for _, p := range s.Points {
		if p.EstP95MS > max {
			max = p.EstP95MS
		}
	}
	return max
}

// Strip renders the backend's per-tick utilization as a Unicode block
// strip; '·' marks ticks before the backend existed.
//
//premalint:ignore testonly reportTemplate calls it for the HTML report's per-NPU strips (premasim -report-html, /report); no Go file names it
func (n NPUSeries) Strip() string {
	var b strings.Builder
	for _, u := range n.Util {
		if u < 0 {
			b.WriteRune('·')
			continue
		}
		i := int(u*float64(len(sparkRunes)-1) + 0.5)
		if i < 0 {
			i = 0
		}
		if i >= len(sparkRunes) {
			i = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// buildSeries converts the recorder's tick samples into the report's
// series section; nil when nothing was sampled.
func buildSeries(samples []telemetry.TickSample) *Series {
	if len(samples) == 0 {
		return nil
	}
	s := &Series{Points: make([]SeriesPoint, len(samples))}
	width := 0
	for i, t := range samples {
		s.Points[i] = SeriesPoint{
			AtMS: t.AtMS, Fleet: t.Fleet,
			EstP95MS: t.EstP95MS, Completions: t.Completions,
		}
		if len(t.NPUs) > width {
			width = len(t.NPUs)
		}
	}
	s.Utilization = make([]NPUSeries, width)
	for i := range s.Utilization {
		ns := NPUSeries{NPU: i, Util: make([]float64, len(samples))}
		for k, t := range samples {
			if i < len(t.NPUs) {
				ns.Util[k] = t.NPUs[i].UtilFrac
				ns.Tier = t.NPUs[i].Tier
			} else {
				ns.Util[k] = -1
			}
		}
		s.Utilization[i] = ns
	}
	return s
}

// tierSummaries converts the node's per-tier statistics into the
// report's shape.
func tierSummaries(tiers []serving.TierStats) []TierSummary {
	out := make([]TierSummary, len(tiers))
	for i, t := range tiers {
		out[i] = TierSummary{
			Tier: t.Tier, NPUs: t.NPUs,
			Requests: t.Requests, Measured: t.Measured,
			MeanLatencyMS: t.MeanLatencyMS,
			P50MS:         t.P50LatencyMS, P95MS: t.P95LatencyMS,
			SLOViolationFrac: t.SLOViolationFrac,
		}
	}
	return out
}

// AssertOutcome is one evaluated scenario assertion.
type AssertOutcome struct {
	Expr   string `json:"expr"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail,omitempty"`
}

// RunReport is one run's exportable outcome: the schema premactl
// sessions and premasim -scenario runs share.
type RunReport struct {
	// Name labels the run; Source is "premactl" or "scenario".
	Name   string `json:"name"`
	Source string `json:"source"`
	// Passed is a scenario run's verdict: true iff every assertion held.
	// The JSON form carries it (as "passed") only on scenario runs;
	// control plane sessions assert nothing.
	Passed bool `json:"-"`
	// Requests is how many arrivals the run routed; SpanMS the virtual
	// timeline length in milliseconds.
	Requests int     `json:"requests"`
	SpanMS   float64 `json:"span_ms"`
	// Fleet, Latency and SLO summarize the run. SLO is nil without a
	// scaler; StatsNote explains absent latency statistics.
	Fleet     FleetSummary   `json:"fleet"`
	Latency   LatencySummary `json:"latency"`
	SLO       *SLOSummary    `json:"slo,omitempty"`
	StatsNote string         `json:"stats_note,omitempty"`
	// Timeline is the full fleet history; Commands the operator log
	// (premactl runs only); Asserts the evaluated assertions (scenario
	// runs only).
	Timeline []ReportEvent   `json:"timeline"`
	Commands []CommandRecord `json:"commands,omitempty"`
	Asserts  []AssertOutcome `json:"asserts,omitempty"`
	// Tiers is the per-tier statistics breakdown; nil on homogeneous
	// fleets or before any request clears the warm-up window.
	Tiers []TierSummary `json:"tiers,omitempty"`
	// Series is the tick-sampled metric timeline; nil without telemetry
	// attached (NodeConfig.Trace with a Recorder) or without a scaler.
	Series *Series `json:"series,omitempty"`
	// Samples is the raw tick-metric series Series summarizes (nil
	// without a recorder), and Events the merged per-request trace of a
	// traced scenario run (nil otherwise; a premactl session reads its
	// trace through TraceExport). Neither is part of the JSON or HTML
	// export: telemetry.EncodeJSONL writes them.
	Samples []telemetry.TickSample `json:"-"`
	Events  []telemetry.Event      `json:"-"`
}

// buildReport derives the run report from the plane's current state;
// the caller holds the mutex. It is callable mid-stream (the `report`
// command) and at quit (the exported artifact).
func (p *Plane) buildReport() *RunReport {
	events := p.ns.Timeline()
	r := &RunReport{
		Name:     p.cfg.Name,
		Source:   "premactl",
		Requests: p.offered,
		SpanMS:   p.millis(p.now),
		Fleet: FleetSummary{
			Start:    p.cfg.Node.NPUs,
			MeanNPUs: serving.MeanFleet(events, p.now),
		},
		Timeline: p.reportEvents(events),
		Commands: append([]CommandRecord(nil), p.commands...),
	}
	for _, e := range events {
		r.Fleet.PeakNPUs = max(r.Fleet.PeakNPUs, e.Active)
	}
	if tr := p.ns.Telemetry(); tr != nil && tr.Recorder != nil {
		r.Samples = tr.Recorder.Samples()
		r.Series = buildSeries(r.Samples)
	}
	st, err := p.realizedStats()
	if err != nil {
		r.StatsNote = err.Error()
		return r
	}
	r.Latency = LatencySummary{
		MeanMS: st.MeanLatencyMS,
		P50MS:  st.P50LatencyMS,
		P95MS:  st.P95LatencyMS,
		P99MS:  st.P99LatencyMS,
	}
	if st.Scaling != nil {
		r.SLO = &SLOSummary{
			TargetMS:      st.Scaling.SLOLatencyMS,
			ViolationFrac: st.Scaling.SLOViolationFrac,
		}
	}
	if st.Tiers != nil {
		r.Tiers = tierSummaries(st.Tiers)
	}
	return r
}

// Report answers the run report: the sealed artifact after quit, or a
// live view of the stream so far.
func (p *Plane) Report() *RunReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.final != nil {
		return p.final
	}
	return p.buildReport()
}

// FromScenario answers a scenario run's report, which already is a
// RunReport. Only the benchmark still calls it.
func FromScenario(rep *RunReport) *RunReport { return rep }

// wire is the report's JSON shape: the report's own fields with the
// verdict spliced in third, as "passed", on scenario runs only. The
// report is embedded by pointer, so building it copies nothing.
func (r *RunReport) wire() any {
	type fields RunReport // drops MarshalJSON, so the embed cannot recurse
	var passed *bool
	if r.Source == "scenario" {
		passed = &r.Passed
	}
	return struct {
		Name   string `json:"name"`
		Source string `json:"source"`
		Passed *bool  `json:"passed,omitempty"`
		*fields
	}{r.Name, r.Source, passed, (*fields)(r)}
}

// MarshalJSON encodes the report in its JSON shape, so every encoder
// (the /report endpoint's included) writes "passed" on scenario runs
// only. JSON marshals the shape directly, skipping the extra pass a
// Marshaler costs.
func (r *RunReport) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.wire())
}

// JSON renders the report as indented JSON.
func (r *RunReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r.wire(), "", "  ")
}

// Render formats a scenario run as its ASCII transcript (the premasim
// -scenario output): verdict, annotated fleet timeline (one '#' per
// routable NPU), assertion lines and the served summary.
func (r *RunReport) Render() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "scenario %q — %s\n", r.Name, verdict)
	fmt.Fprintf(&b, "%d requests over %.0fms, fleet started at %d NPUs\n\n",
		r.Requests, r.SpanMS, r.Fleet.Start)

	b.WriteString("fleet timeline:\n")
	for _, e := range r.Timeline {
		fmt.Fprintf(&b, "  %9.2fms  %d NPUs %-10s %s\n",
			e.AtMS, e.Fleet, strings.Repeat("#", e.Fleet), e.label())
	}

	if len(r.Asserts) > 0 {
		b.WriteString("\nasserts:\n")
		for _, a := range r.Asserts {
			mark := "PASS"
			if !a.Pass {
				mark = "FAIL"
			}
			fmt.Fprintf(&b, "  %s  %s — %s\n", mark, a.Expr, a.Detail)
		}
	}

	fmt.Fprintf(&b, "\nlatency: mean %.2fms  p50 %.2fms  p95 %.2fms\n",
		r.Latency.MeanMS, r.Latency.P50MS, r.Latency.P95MS)
	if r.SLO != nil {
		fmt.Fprintf(&b, "slo: %.1fms target, %.1f%% of measured requests violated\n",
			r.SLO.TargetMS, r.SLO.ViolationFrac*100)
	}
	fmt.Fprintf(&b, "fleet: mean %.2f NPUs, peak %d\n", r.Fleet.MeanNPUs, r.Fleet.PeakNPUs)
	return b.String()
}

// Compact formats the report as a compact deterministic text block (the
// `report` command's output).
func (r *RunReport) Compact() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run %q (%s): %d requests over %.2fms\n",
		r.Name, r.Source, r.Requests, r.SpanMS)
	fmt.Fprintf(&b, "fleet: start %d, mean %.2f, peak %d — %d timeline events\n",
		r.Fleet.Start, r.Fleet.MeanNPUs, r.Fleet.PeakNPUs, len(r.Timeline))
	if r.StatsNote != "" {
		fmt.Fprintf(&b, "latency: %s\n", r.StatsNote)
	} else {
		fmt.Fprintf(&b, "latency: mean %.2fms  p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
			r.Latency.MeanMS, r.Latency.P50MS, r.Latency.P95MS, r.Latency.P99MS)
	}
	if r.SLO != nil {
		fmt.Fprintf(&b, "slo: %.1fms target, %.1f%% violated\n",
			r.SLO.TargetMS, r.SLO.ViolationFrac*100)
	}
	for _, t := range r.Tiers {
		fmt.Fprintf(&b, "tier %s: %d npus, %d requests, p95 %.2fms, %.1f%% over SLO\n",
			t.Tier, t.NPUs, t.Requests, t.P95MS, t.SLOViolationFrac*100)
	}
	if r.Series != nil {
		fmt.Fprintf(&b, "series: %d ticks, est p95 %s (peak %.2fms)\n",
			len(r.Series.Points), r.Series.LatencySpark(), r.Series.MaxEstP95MS())
	}
	if len(r.Commands) > 0 {
		fmt.Fprintf(&b, "commands: %d executed\n", len(r.Commands))
	}
	return strings.TrimRight(b.String(), "\n")
}

// reportHTML is the self-contained single-file page template.
const reportHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Name}} — run report</title>
<style>
body { font: 14px/1.5 -apple-system, "Segoe UI", sans-serif; color: #1b1f24; margin: 2rem auto; max-width: 60rem; padding: 0 1rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.05rem; margin-top: 1.8rem; }
.meta { color: #57606a; }
.badge { display: inline-block; padding: .1rem .55rem; border-radius: 1rem; font-weight: 600; }
.pass { background: #dafbe1; color: #116329; } .fail { background: #ffebe9; color: #a40e26; }
.tiles { display: flex; flex-wrap: wrap; gap: .8rem; margin-top: 1rem; }
.tile { border: 1px solid #d0d7de; border-radius: .5rem; padding: .6rem .9rem; min-width: 8rem; }
.tile b { display: block; font-size: 1.2rem; } .tile span { color: #57606a; font-size: .8rem; }
table { border-collapse: collapse; width: 100%; margin-top: .6rem; }
th, td { text-align: left; padding: .3rem .6rem; border-bottom: 1px solid #d8dee4; font-size: .85rem; }
th { color: #57606a; font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.err { color: #a40e26; }
code { background: #f6f8fa; padding: .1rem .3rem; border-radius: .3rem; }
.spark { font: 1.1rem/1.3 "SFMono-Regular", Consolas, monospace; letter-spacing: .04em; margin: .2rem 0; }
td.spark { font-size: .95rem; }
</style>
</head>
<body>
<h1>{{.Name}} <span class="meta">({{.Source}} run)</span>
{{- if eq .Source "scenario"}} {{if .Passed}}<span class="badge pass">PASS</span>{{else}}<span class="badge fail">FAIL</span>{{end}}{{end}}</h1>
<div class="tiles">
<div class="tile"><b>{{.Requests}}</b><span>requests</span></div>
<div class="tile"><b>{{printf "%.1f" .SpanMS}}ms</b><span>span</span></div>
<div class="tile"><b>{{.Fleet.Start}} &rarr; peak {{.Fleet.PeakNPUs}}</b><span>fleet (mean {{printf "%.2f" .Fleet.MeanNPUs}})</span></div>
{{- if not .StatsNote}}
<div class="tile"><b>{{printf "%.2f" .Latency.P95MS}}ms</b><span>p95 latency</span></div>
{{- end}}
{{- if .SLO}}
<div class="tile"><b>{{printf "%.1f" (pct .SLO.ViolationFrac)}}%</b><span>over {{printf "%.1f" .SLO.TargetMS}}ms SLO</span></div>
{{- end}}
</div>
{{- if .StatsNote}}
<p class="meta">latency statistics unavailable: {{.StatsNote}}</p>
{{- else}}
<h2>Latency</h2>
<table><tr><th class="num">mean</th><th class="num">p50</th><th class="num">p95</th><th class="num">p99</th></tr>
<tr><td class="num">{{printf "%.2f" .Latency.MeanMS}}ms</td><td class="num">{{printf "%.2f" .Latency.P50MS}}ms</td><td class="num">{{printf "%.2f" .Latency.P95MS}}ms</td><td class="num">{{printf "%.2f" .Latency.P99MS}}ms</td></tr></table>
{{- end}}
{{- if .Tiers}}
<h2>Tiers</h2>
<table><tr><th>tier</th><th class="num">npus</th><th class="num">requests</th><th class="num">measured</th><th class="num">mean</th><th class="num">p50</th><th class="num">p95</th><th class="num">over SLO</th></tr>
{{- range .Tiers}}
<tr><td>{{.Tier}}</td><td class="num">{{.NPUs}}</td><td class="num">{{.Requests}}</td><td class="num">{{.Measured}}</td><td class="num">{{printf "%.2f" .MeanLatencyMS}}ms</td><td class="num">{{printf "%.2f" .P50MS}}ms</td><td class="num">{{printf "%.2f" .P95MS}}ms</td><td class="num">{{printf "%.1f" (pct .SLOViolationFrac)}}%</td></tr>
{{- end}}
</table>
{{- end}}
{{- if .Series}}
<h2>Tick series</h2>
<p class="meta">estimated p95 latency per autoscale tick, scaled to the peak ({{printf "%.2f" .Series.MaxEstP95MS}}ms) over {{len .Series.Points}} ticks</p>
<div class="spark">{{.Series.LatencySpark}}</div>
<table><tr><th>npu</th><th>tier</th><th>utilization</th></tr>
{{- range .Series.Utilization}}
<tr><td>npu{{.NPU}}</td><td>{{.Tier}}</td><td class="spark">{{.Strip}}</td></tr>
{{- end}}
</table>
{{- end}}
<h2>Fleet timeline</h2>
<table><tr><th class="num">at</th><th>event</th><th>npu</th><th class="num">delta</th><th class="num">fleet</th><th>note</th></tr>
{{- range .Timeline}}
<tr><td class="num">{{printf "%.2f" .AtMS}}ms</td><td>{{.Kind}}</td><td>{{if ge .NPU 0}}npu{{.NPU}}{{else}}&mdash;{{end}}</td><td class="num">{{if .Delta}}{{printf "%+d" .Delta}}{{end}}</td><td class="num">{{.Fleet}}</td><td>{{.Note}}</td></tr>
{{- end}}
</table>
{{- if .Commands}}
<h2>Command log</h2>
<table><tr><th class="num">at</th><th>command</th><th>outcome</th></tr>
{{- range .Commands}}
<tr><td class="num">{{printf "%.2f" .AtMS}}ms</td><td><code>{{.Cmd}}</code></td><td>{{if .Err}}<span class="err">{{.Err}}</span>{{else}}{{firstLine .Output}}{{end}}</td></tr>
{{- end}}
</table>
{{- end}}
{{- if .Asserts}}
<h2>Assertions</h2>
<table><tr><th>verdict</th><th>assertion</th><th>detail</th></tr>
{{- range .Asserts}}
<tr><td>{{if .Pass}}<span class="badge pass">PASS</span>{{else}}<span class="badge fail">FAIL</span>{{end}}</td><td><code>{{.Expr}}</code></td><td>{{.Detail}}</td></tr>
{{- end}}
</table>
{{- end}}
</body>
</html>
`

var reportTemplate = template.Must(template.New("report").Funcs(template.FuncMap{
	"pct":       func(f float64) float64 { return f * 100 },
	"firstLine": func(s string) string { line, _, _ := strings.Cut(s, "\n"); return line },
}).Parse(reportHTML))

// HTML renders the report as a self-contained single-file page.
func (r *RunReport) HTML() ([]byte, error) {
	var b strings.Builder
	if err := reportTemplate.Execute(&b, r); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}
