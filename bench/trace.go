package main

// trace.go records spans around the calls the benchmark makes into each
// layer's public functions. Spans stay in memory while the run measures
// and are written out only when it ends, so writing them costs the
// measured rounds nothing. A span's self time is its duration minus the
// time its child spans cover; the benchmark makes one call at a time, so
// child spans never overlap.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call, as written to the spans file.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1 for a root span
	Run    int    `json:"run"`    // the round the span belongs to
}

// tracer collects the spans of one process. Start and end times are
// nanoseconds since the tracer was created.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // ids of the spans begun and not yet ended
	run    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(layer, name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Layer: layer, Parent: parent, Run: t.run,
		Start: time.Since(t.origin).Nanoseconds(),
	})
	t.open = append(t.open, id)
}

func (t *tracer) end() {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
}

// selfTimes answers each span's self time in nanoseconds, indexed by
// span id.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// total sums the duration and the self time of every span with the given
// layer and name, in nanoseconds.
func (t *tracer) total(layer, name string) (dur, self int64) {
	selfs := t.selfTimes()
	for i, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			dur += s.End - s.Start
			self += selfs[i]
		}
	}
	return dur, self
}

// writeJSONL writes one JSON object per span.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// report prints the self time of every (layer, name) pair, largest
// first, and each layer's total, as "self <layer>.<name> <ms> ms <calls>"
// lines.
func (t *tracer) report(w io.Writer) {
	type row struct {
		key   string
		self  int64
		calls int
	}
	byName := map[string]*row{}
	byLayer := map[string]*row{}
	selfs := t.selfTimes()
	for i, s := range t.spans {
		self := selfs[i]
		for _, k := range []struct {
			m   map[string]*row
			key string
		}{{byName, s.Layer + "." + s.Name}, {byLayer, s.Layer}} {
			r := k.m[k.key]
			if r == nil {
				r = &row{key: k.key}
				k.m[k.key] = r
			}
			r.self += self
			r.calls++
		}
	}
	for _, m := range []map[string]*row{byLayer, byName} {
		rows := make([]*row, 0, len(m))
		for _, r := range m {
			rows = append(rows, r)
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].self != rows[j].self {
				return rows[i].self > rows[j].self
			}
			return rows[i].key < rows[j].key
		})
		for _, r := range rows {
			fmt.Fprintf(w, "self %s %.3f ms %d\n", r.key, float64(r.self)/1e6, r.calls)
		}
	}
}
