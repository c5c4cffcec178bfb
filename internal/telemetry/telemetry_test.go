package telemetry

// telemetry_test.go covers the package's own mechanics: ring wrap and
// eviction order (against a plain-slice reference ring), on-demand ring
// storage, the merge-and-stamp contract, the JSONL interleave, and the
// summary's latency decomposition (including the stretch and reclaim
// corner cases the serving integration relies on).

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Cycle: int64(i), Req: i})
	}
	if tr.Len() != 4 || tr.Total() != 10 || tr.Cap() != 4 {
		t.Fatalf("ring state Len=%d Total=%d Cap=%d, want 4/10/4", tr.Len(), tr.Total(), tr.Cap())
	}
	got := tr.Events()
	for i, e := range got {
		if want := 6 + i; e.Req != want {
			t.Errorf("event %d: req %d, want %d (oldest-first after eviction)", i, e.Req, want)
		}
	}
}

func TestTracerUnwrapped(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 3; i++ {
		tr.Record(Event{Req: i})
	}
	got := tr.Events()
	if len(got) != 3 || got[0].Req != 0 || got[2].Req != 2 {
		t.Fatalf("unwrapped events %+v, want reqs 0..2 in order", got)
	}
	// The returned slice must be caller-owned: mutating it cannot reach
	// the ring.
	got[0].Req = 99
	if tr.Events()[0].Req != 0 {
		t.Errorf("Events returned a view into the ring, want a copy")
	}
}

func TestTracerDefaultCap(t *testing.T) {
	if got := NewTracer(0).Cap(); got != DefaultEventCap {
		t.Errorf("default tracer cap %d, want %d", got, DefaultEventCap)
	}
	if got := NewRecorder(-1).Cap(); got != DefaultTickCap {
		t.Errorf("default recorder cap %d, want %d", got, DefaultTickCap)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Record(TickSample{Cycle: int64(i)})
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("ring state Len=%d Total=%d, want 3/5", r.Len(), r.Total())
	}
	got := r.Samples()
	for i, s := range got {
		if want := int64(2 + i); s.Cycle != want {
			t.Errorf("sample %d: cycle %d, want %d", i, s.Cycle, want)
		}
	}
}

// refRing is the plain-slice ring the paged Tracer and the growing
// Recorder must match: full capacity up front, slot total % cap.
type refRing[T any] struct {
	buf        []T
	cap, total int
}

func (r *refRing[T]) record(v T) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.total%r.cap] = v
	}
	r.total++
}

// items answers the ring's contents oldest-first.
func (r *refRing[T]) items() []T {
	i := r.total % r.cap
	if r.total <= r.cap {
		i = 0
	}
	return append(append([]T{}, r.buf[i:]...), r.buf[:i]...)
}

// ringCaps are the capacities the ring tests drive: tiny rings, sizes
// on either side of a page boundary, and the default.
var ringCaps = []int{1, 2, 3, 7, 100, pageSize - 1, pageSize + 1, 2*pageSize + 3, 1000, DefaultEventCap}

// checkpoint reports whether the ring tests compare after the n-th
// recording: every one on tiny rings, else around each wrap.
func checkpoint(n, cap int) bool {
	return cap <= 8 || n == 1 || n%cap <= 1 || n%cap == cap-1
}

// TestTracerMatchesReferenceRing drives the paged tracer through every
// recording path up to three times its capacity, so it wraps several
// times over pages holding stale columns, and compares it with the
// reference ring after each wrap.
func TestTracerMatchesReferenceRing(t *testing.T) {
	tierNames := []string{"", "fast", "slow"}
	noteNames := []string{"", "CNN-AN", "RNN-SA"}
	for _, c := range ringCaps {
		tr := NewTracer(c)
		ref := refRing[Event]{cap: c}
		var tiers, notes []Sym
		for i := range tierNames {
			tiers = append(tiers, tr.InternTier(tierNames[i]))
			notes = append(notes, tr.InternNote(noteNames[i]))
		}
		rng := rand.New(rand.NewPCG(uint64(c), 3))
		for n := 1; n <= 3*c; n++ {
			cycle, req, npu, tier := int64(n), rng.IntN(1<<20), rng.IntN(16), rng.IntN(3)
			f := rng.Float64() * 10
			var e Event
			switch rng.IntN(7) {
			case 0:
				tr.RecordSubmit(cycle, req, notes[tier])
				e = Event{Cycle: cycle, Kind: KindSubmit, Req: req, NPU: -1, Note: noteNames[tier]}
			case 1:
				tr.RecordRoute(cycle, req, npu, tiers[tier], f)
				e = Event{Cycle: cycle, Kind: KindRoute, Req: req, NPU: npu, Tier: tierNames[tier], EstMS: f}
			case 2:
				tr.RecordStretch(cycle, req, npu, tiers[tier], f)
				e = Event{Cycle: cycle, Kind: KindStretch, Req: req, NPU: npu, Tier: tierNames[tier], Factor: f}
			case 3:
				e = Event{Cycle: cycle, Kind: KindReclaim, Req: req, NPU: npu, Tier: tierNames[tier]}
				tr.Record(e)
			case 4:
				e = Event{Cycle: cycle, Kind: KindComplete, Req: req, NPU: npu, Tier: tierNames[tier],
					LatencyMS: f, ServiceMS: f / 2}
				tr.Record(e)
			default:
				e = Event{Cycle: cycle, Kind: "custom", Req: -req, NPU: npu, Tier: "t", EstMS: f,
					Factor: f + 1, LatencyMS: f + 2, ServiceMS: f + 3, Note: noteNames[tier]}
				tr.Record(e)
			}
			ref.record(e)
			if !checkpoint(n, c) {
				continue
			}
			if tr.Len() != len(ref.buf) || tr.Total() != n || tr.Cap() != c {
				t.Fatalf("cap %d after %d: Len=%d Total=%d Cap=%d, want %d/%d/%d",
					c, n, tr.Len(), tr.Total(), tr.Cap(), len(ref.buf), n, c)
			}
			if got, want := tr.Events(), ref.items(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d after %d: events diverge from the reference ring", c, n)
			}
			// Pages follow the slots written, never the capacity.
			if want := (min(n, c) + pageSize - 1) / pageSize; len(tr.pages) != want {
				t.Fatalf("cap %d after %d: %d pages, want %d", c, n, len(tr.pages), want)
			}
		}
	}
}

// TestRecorderMatchesReferenceRing does the same for the recorder,
// whose buffer must grow with the samples and stop at the capacity.
func TestRecorderMatchesReferenceRing(t *testing.T) {
	for _, c := range ringCaps {
		r := NewRecorder(c)
		ref := refRing[TickSample]{cap: c}
		for n := 1; n <= 3*c; n++ {
			s := TickSample{Cycle: int64(n), Fleet: n % 5, NPUs: make([]NPUSample, n%3)}
			r.Record(s)
			ref.record(s)
			if !checkpoint(n, c) {
				continue
			}
			if r.Len() != len(ref.buf) || r.Total() != n || r.Cap() != c || cap(r.buf) > c {
				t.Fatalf("cap %d after %d: Len=%d Total=%d Cap=%d buffer cap %d, want %d/%d/%d and at most %d",
					c, n, r.Len(), r.Total(), r.Cap(), cap(r.buf), len(ref.buf), n, c, c)
			}
			if got, want := r.Samples(), ref.items(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d after %d: samples diverge from the reference ring", c, n)
			}
		}
	}
}

var sinkTrace *Trace

// TestNewAllocatesOnDemand pins New's footprint: a handle at the
// default capacities allocates no ring storage until it records.
func TestNewAllocatesOnDemand(t *testing.T) {
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sinkTrace = New()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4096 {
		t.Errorf("New allocates %d bytes, want a few hundred: ring storage must wait for recordings", per)
	}
}

func TestMergeEventsOrderAndSeq(t *testing.T) {
	recorded := []Event{
		{Cycle: 10, Kind: KindSubmit, Req: 0},
		{Cycle: 20, Kind: KindRoute, Req: 0},
		{Cycle: 20, Kind: KindSubmit, Req: 1},
	}
	completions := []Event{
		{Cycle: 20, Kind: KindComplete, Req: 0},
		{Cycle: 15, Kind: KindComplete, Req: 2},
	}
	got := MergeEvents(recorded, completions)
	wantKinds := []string{KindSubmit, KindComplete, KindRoute, KindSubmit, KindComplete}
	if len(got) != len(wantKinds) {
		t.Fatalf("merged %d events, want %d", len(got), len(wantKinds))
	}
	for i, e := range got {
		if e.Kind != wantKinds[i] {
			t.Errorf("merged[%d] kind %s, want %s (recorded precede completions at equal cycles)",
				i, e.Kind, wantKinds[i])
		}
		if e.Seq != i {
			t.Errorf("merged[%d] seq %d, want %d", i, e.Seq, i)
		}
	}
}

func TestEncodeJSONLInterleave(t *testing.T) {
	events := []Event{
		{Cycle: 5, Kind: KindSubmit, Req: 0, NPU: -1},
		{Cycle: 30, Kind: KindComplete, Req: 0, NPU: 1, LatencyMS: 2.5},
	}
	ticks := []TickSample{{Cycle: 10, Fleet: 2}, {Cycle: 40, Fleet: 3}}
	out, err := EncodeJSONL(events, ticks)
	if err != nil {
		t.Fatalf("EncodeJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("encoded %d lines, want 4:\n%s", len(lines), out)
	}
	var kinds []string
	for _, ln := range lines {
		var probe struct {
			Kind  string `json:"kind"`
			Cycle int64  `json:"cycle"`
		}
		if err := json.Unmarshal([]byte(ln), &probe); err != nil {
			t.Fatalf("line %q not valid JSON: %v", ln, err)
		}
		kinds = append(kinds, probe.Kind)
	}
	want := []string{KindSubmit, "tick", KindComplete, "tick"}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("line %d kind %q, want %q (cycle-order interleave)", i, kinds[i], want[i])
		}
	}
	// Determinism oracle: the encoding is a pure function of its inputs.
	again, err := EncodeJSONL(events, ticks)
	if err != nil {
		t.Fatalf("EncodeJSONL (second): %v", err)
	}
	if !bytes.Equal(out, again) {
		t.Errorf("EncodeJSONL not byte-stable across calls")
	}
}

func TestSummarizeDecomposition(t *testing.T) {
	events := []Event{
		// req 0: clean lifecycle, 4ms latency with 1ms of queueing.
		{Cycle: 0, Kind: KindSubmit, Req: 0, NPU: -1},
		{Cycle: 0, Kind: KindRoute, Req: 0, NPU: 0, EstMS: 3},
		{Cycle: 40, Kind: KindComplete, Req: 0, NPU: 0, LatencyMS: 4, ServiceMS: 3},
		// req 1: stretched x2 — half its 6ms service is slowdown-added.
		{Cycle: 1, Kind: KindSubmit, Req: 1, NPU: -1},
		{Cycle: 1, Kind: KindRoute, Req: 1, NPU: 1},
		{Cycle: 1, Kind: KindStretch, Req: 1, NPU: 1, Factor: 2},
		{Cycle: 60, Kind: KindComplete, Req: 1, NPU: 1, LatencyMS: 6, ServiceMS: 6},
		// req 2: stretched, then reclaimed (stretch shed), never completed.
		{Cycle: 2, Kind: KindSubmit, Req: 2, NPU: -1},
		{Cycle: 2, Kind: KindStretch, Req: 2, NPU: 1, Factor: 3},
		{Cycle: 9, Kind: KindReclaim, Req: 2, NPU: 1},
		{Cycle: 9, Kind: KindRoute, Req: 2, NPU: 0},
	}
	s := Summarize(events, 1)
	if s.Events != len(events) || s.Requests != 3 || s.Completed != 2 {
		t.Fatalf("counts events=%d requests=%d completed=%d, want %d/3/2",
			s.Events, s.Requests, s.Completed, len(events))
	}
	if s.Reroutes != 1 || s.Stretched != 2 {
		t.Errorf("reroutes=%d stretched=%d, want 1/2 (reclaimed request still counts as stretched)",
			s.Reroutes, s.Stretched)
	}
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !approx(s.MeanLatencyMS, 5) || !approx(s.MaxLatencyMS, 6) {
		t.Errorf("latency mean=%.3f max=%.3f, want 5/6", s.MeanLatencyMS, s.MaxLatencyMS)
	}
	if !approx(s.MeanQueueMS, 0.5) || !approx(s.MeanServiceMS, 4.5) || !approx(s.MeanStretchMS, 1.5) {
		t.Errorf("decomposition queue=%.3f service=%.3f stretch=%.3f, want 0.5/4.5/1.5",
			s.MeanQueueMS, s.MeanServiceMS, s.MeanStretchMS)
	}
	if len(s.Worst) != 1 || s.Worst[0].Req != 1 {
		t.Fatalf("worst %+v, want single entry req 1 (topK=1)", s.Worst)
	}
	if w := s.Worst[0]; !approx(w.StretchMS, 3) || w.Events != 4 {
		t.Errorf("worst trace %+v, want stretch 3ms over 4 events", w)
	}
}

func TestSummarizeEmptyAndDefaults(t *testing.T) {
	s := Summarize(nil, 0)
	if s.Events != 0 || s.Requests != 0 || len(s.Worst) != 0 {
		t.Errorf("empty summary %+v, want zeros", s)
	}
	// topK <= 0 defaults to 5.
	var events []Event
	for i := 0; i < 8; i++ {
		events = append(events,
			Event{Cycle: int64(i), Kind: KindSubmit, Req: i, NPU: -1},
			Event{Cycle: int64(100 + i), Kind: KindComplete, Req: i, NPU: 0,
				LatencyMS: float64(i + 1), ServiceMS: 1})
	}
	s = Summarize(events, 0)
	if len(s.Worst) != 5 {
		t.Fatalf("default topK kept %d worst traces, want 5", len(s.Worst))
	}
	if s.Worst[0].Req != 7 || s.Worst[4].Req != 3 {
		t.Errorf("worst order %+v, want reqs 7..3 by descending latency", s.Worst)
	}
}
