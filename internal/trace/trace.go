// Package trace records and renders execution timelines of multi-tasked
// NPU runs — the Figure 2-style views that make scheduling behaviour
// inspectable (which task occupied the NPU when, and where preemptions
// happened).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/npu"
)

// Span is one contiguous occupancy interval of the NPU.
type Span struct {
	// TaskID identifies the occupant (-1 for idle gaps in rendering).
	TaskID int
	// Label is a short human-readable tag (model name, "ckpt", ...).
	Label string
	// Start and End are in cycles.
	Start, End int64
}

// Duration returns the span length in cycles.
func (s Span) Duration() int64 { return s.End - s.Start }

// Timeline accumulates spans for one run.
type Timeline struct {
	spans []Span
}

// Add appends a span; spans may be appended out of order and are sorted
// at rendering time.
func (t *Timeline) Add(s Span) {
	if s.End < s.Start {
		panic(fmt.Sprintf("trace: span ends (%d) before it starts (%d)", s.End, s.Start))
	}
	t.spans = append(t.spans, s)
}

// Spans returns the recorded spans sorted by start cycle.
func (t *Timeline) Spans() []Span {
	out := append([]Span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out
}

// Makespan returns the end of the last span.
func (t *Timeline) Makespan() int64 {
	var end int64
	for _, s := range t.spans {
		if s.End > end {
			end = s.End
		}
	}
	return end
}

// BusyCycles returns total occupied cycles (spans may not overlap on a
// single NPU; overlaps are counted twice and indicate a recording bug
// that Validate catches).
func (t *Timeline) BusyCycles() int64 {
	var busy int64
	for _, s := range t.spans {
		busy += s.Duration()
	}
	return busy
}

// Validate checks that no two spans overlap (one NPU executes one task at
// a time under temporal multi-tasking, Section IV-A).
//
//premalint:ignore testonly a check; sim's TestAllTasksCompleteUnderEveryConfiguration and FuzzSimInvariants run it on every simulated timeline
func (t *Timeline) Validate() error {
	spans := t.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End {
			return fmt.Errorf("trace: span %d (task %d [%d,%d)) overlaps span %d (task %d [%d,%d))",
				i, spans[i].TaskID, spans[i].Start, spans[i].End,
				i-1, spans[i-1].TaskID, spans[i-1].Start, spans[i-1].End)
		}
	}
	return nil
}

// Render draws the timeline as ASCII art with the given column budget,
// one row per task, matching the presentation of Figure 2.
func (t *Timeline) Render(cfg npu.Config, width int) string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "(empty timeline)\n"
	}
	if width < 20 {
		width = 20
	}
	makespan := t.Makespan()
	if makespan == 0 {
		makespan = 1
	}

	// Stable task ordering: by first appearance.
	order := []int{}
	labels := map[int]string{}
	seen := map[int]bool{}
	for _, s := range spans {
		if !seen[s.TaskID] {
			seen[s.TaskID] = true
			order = append(order, s.TaskID)
			labels[s.TaskID] = s.Label
		}
	}

	var b strings.Builder
	scale := float64(width) / float64(makespan)
	for _, id := range order {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range spans {
			if s.TaskID != id {
				continue
			}
			lo := int(float64(s.Start) * scale)
			hi := int(float64(s.End) * scale)
			if hi <= lo {
				hi = lo + 1
			}
			if hi > width {
				hi = width
			}
			ch := byte('#')
			if strings.Contains(s.Label, "ckpt") {
				ch = 'x'
			}
			for i := lo; i < hi; i++ {
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "%-16s |%s|\n", fmt.Sprintf("T%d %s", id, labels[id]), row)
	}
	fmt.Fprintf(&b, "%-16s  0%*s\n", "", width, fmt.Sprintf("%.2f ms", cfg.Millis(makespan)))
	return b.String()
}
