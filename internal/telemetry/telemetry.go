// Package telemetry is the repository's zero-dependency observability
// layer: per-request lifecycle tracing and tick-sampled fleet metrics
// for the streaming node session, both driven entirely by the virtual
// stream clock. Nothing here reads wall time or iterates a map without
// ordering, so a traced run replays byte-identically — the same seed
// and scenario produce the same JSONL trace and the same metric series,
// which makes telemetry output a determinism oracle as well as a
// debugging surface.
//
// The package has two halves, carried together by a Trace handle:
//
//   - Tracer records one compact Event per request lifecycle edge
//     (submit, route, stretch, reclaim, complete) into a fixed-capacity
//     ring, so tracing a long stream holds bounded memory.
//   - Recorder captures one TickSample per autoscale tick: per-NPU and
//     per-tier gauges plus fleet counters (completions, reclaims,
//     estimate-SLO violations since the previous tick).
//
// Both rings allocate as they fill: their memory follows the events and
// samples recorded, bounded by the capacity, so a handle at the default
// capacities costs a few hundred bytes until something is recorded.
//
// The serving package fills both (serving.NodeConfig.Trace); this
// package owns the aggregation: MergeEvents orders the stream,
// Summarize derives queue/service/stretch decompositions and the
// worst-latency traces, and EncodeJSONL exports everything as sorted
// JSON Lines into one allocation of exactly the output's size.
package telemetry

// Event kinds, one per request lifecycle edge the node session traces.
const (
	// KindSubmit marks a request entering the node (NPU is -1: no
	// routing decision has been made yet). Note carries the model name.
	KindSubmit = "submit"
	// KindRoute marks a routing decision: NPU and Tier identify the
	// chosen backend and EstMS its fluid latency estimate (queueing plus
	// service) at the decision instant.
	KindRoute = "route"
	// KindStretch marks a request landing on a slowed backend: it runs
	// at Factor times its nominal service time.
	KindStretch = "stretch"
	// KindReclaim marks a request pulled back from a failed backend;
	// the route event that follows at the same cycle is its re-route.
	KindReclaim = "reclaim"
	// KindComplete marks a simulated completion: LatencyMS is the
	// realized turnaround and ServiceMS its isolated-service share.
	KindComplete = "complete"
)

// Event is one compact per-request lifecycle record. Cycle is the
// virtual instant (NPU cycles); Seq is the event's index in the sorted
// export, stamped by MergeEvents. Fields that do not apply to a kind
// are zero and omitted from the JSONL encoding.
type Event struct {
	// Seq is the event's position in the sorted merged stream.
	Seq int `json:"seq"`
	// Cycle is the virtual instant the edge occurred at.
	Cycle int64 `json:"cycle"`
	// AtMS is Cycle converted to milliseconds (filled at export time;
	// the hot recording path does not pay for the conversion).
	AtMS float64 `json:"at_ms"`
	// Kind is the lifecycle edge (see the Kind constants).
	Kind string `json:"kind"`
	// Req is the node-session trace request ID, assigned in submission
	// order and stable across re-routes.
	Req int `json:"req"`
	// NPU is the backend index the edge applies to; -1 on submit.
	NPU int `json:"npu"`
	// Tier is the backend's hardware tier; empty on homogeneous fleets.
	Tier string `json:"tier,omitempty"`
	// EstMS is the fluid latency estimate of a route decision.
	EstMS float64 `json:"est_ms,omitempty"`
	// Factor is the slowdown multiplier of a stretch edge.
	Factor float64 `json:"factor,omitempty"`
	// LatencyMS is the realized turnaround of a complete edge.
	LatencyMS float64 `json:"latency_ms,omitempty"`
	// ServiceMS is the isolated-service share of a complete edge's
	// latency (turnaround divided by normalized turnaround time).
	ServiceMS float64 `json:"service_ms,omitempty"`
	// Note carries edge detail (the model name on submit).
	Note string `json:"note,omitempty"`
}

// DefaultEventCap is the tracer ring's default capacity.
const DefaultEventCap = 4096

// Ring-internal kind indices: the Kind constants pre-interned at fixed
// positions in a tracer's kinds table, so the hot recording methods
// store a constant instead of scanning.
const (
	kindNone = iota
	kindSubmit
	kindRoute
	kindStretch
	kindReclaim
	kindComplete
)

// Tracer is a fixed-capacity ring of lifecycle events. Recording past
// the capacity evicts the oldest events; Total keeps counting, so an
// overflowing trace is detectable (Total > Len). A Tracer is not safe
// for concurrent use — it lives inside a node session's single-threaded
// stream loop.
//
// The ring stores events column-per-field (structure-of-arrays) rather
// than as Event structs: each recording writes only the columns its
// kind carries (a submit is 3 scalars and two bytes, not a 120-byte
// struct), consecutive events share cache lines within each column, and
// every column is pointer-free so the garbage collector never walks the
// ring. Strings are interned into per-field vocabulary tables — the
// lifecycle-kind constants, a fleet's tier names, the model catalogue —
// and stored as indices; Events materializes full Event values on the
// cold export path, reading back exactly the columns each kind's schema
// defines.
//
// The columns are split into fixed-size pages, each allocated when the
// ring first writes into it: memory follows the events recorded,
// bounded by the capacity, so a short trace on a default-capacity ring
// costs a page or two rather than the whole ring.
type Tracer struct {
	// pages holds the ring's slots in pageSize-event pages; slot i lives
	// at pages[i>>pageShift][i&pageMask]. The ring fills its slots in
	// order before it wraps, so pages grows by one page at a time.
	pages []*page
	// kinds, tiers and notes are the intern tables the meta column's
	// indices point into; index 0 is always "". Each grows with the
	// distinct-string vocabulary (a handful of entries), never with the
	// event count.
	kinds, tiers, notes []string
	// n is how many events the ring holds, w the next write slot —
	// always total % cap, kept incrementally so the hot path never
	// pays an integer division.
	n, w, total, cap int
}

// pageShift sets a tracer page at 256 events (14 KiB).
const (
	pageShift = 8
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// page is one pageSize-event stretch of a tracer's columns.
type page struct {
	cycle                         [pageSize]int64
	est, factor, latency, service [pageSize]float64
	// ids packs req (low 32 bits) and npu (high 32 bits, two's
	// complement); meta packs the kind (low 16), tier (mid 16) and note
	// (bits 32-47) vocabulary indices — so a hot-path event is three or
	// four word stores, and the float columns a kind does not carry are
	// never touched.
	ids, meta [pageSize]uint64
}

// NewTracer builds a tracer ring holding up to cap events; cap <= 0
// selects DefaultEventCap. No event page is allocated until the first
// recording.
func NewTracer(cap int) *Tracer {
	if cap <= 0 {
		cap = DefaultEventCap
	}
	return &Tracer{
		kinds: []string{"", KindSubmit, KindRoute, KindStretch, KindReclaim, KindComplete},
		tiers: []string{""},
		notes: []string{""},
		cap:   cap,
	}
}

// packIDs packs a request and backend index into one ids-column word.
func packIDs(req, npu int) uint64 {
	return uint64(uint32(int32(req))) | uint64(uint32(int32(npu)))<<32
}

// Sym is an interned-string handle into a tracer's vocabulary tables:
// the hot recording methods take pre-interned Syms instead of strings,
// so the per-event cost is column writes, never a string comparison.
// The zero Sym is always the empty string. Syms are tracer-specific —
// never pass one tracer's Sym to another.
type Sym uint16

// intern answers s's index in one vocabulary table, appending it on
// first sight. A linear scan wins here: each table holds a handful of
// entries and this runs once per distinct string, not per event.
func intern(table *[]string, s string) uint16 {
	if s == "" {
		return 0
	}
	for i, v := range *table {
		if v == s {
			return uint16(i)
		}
	}
	*table = append(*table, s)
	return uint16(len(*table) - 1)
}

// InternTier pre-interns a tier name for the hot recording methods:
// call once per distinct tier at setup, pass the Sym per event.
func (t *Tracer) InternTier(s string) Sym { return Sym(intern(&t.tiers, s)) }

// InternNote pre-interns a note value (the model name on submit
// events) for the hot recording methods.
func (t *Tracer) InternNote(s string) Sym { return Sym(intern(&t.notes, s)) }

// slot claims the next ring slot, evicting the oldest event when full,
// and answers its page and offset within the page.
func (t *Tracer) slot() (*page, int) {
	i := t.w
	t.w++
	if t.w == t.cap {
		t.w = 0
	}
	if t.n < t.cap {
		t.n++
	}
	t.total++
	k := i >> pageShift
	if k == len(t.pages) {
		t.pages = append(t.pages, new(page))
	}
	return t.pages[k], i & pageMask
}

// Record appends one event, evicting the oldest when the ring is full.
// This is the general path — it writes every column; the per-request
// edges that fire on every submission have dedicated methods
// (RecordSubmit, RecordRoute, RecordStretch) that skip materializing an
// Event and write only their kind's columns.
func (t *Tracer) Record(e Event) {
	p, j := t.slot()
	p.cycle[j] = e.Cycle
	p.est[j], p.factor[j] = e.EstMS, e.Factor
	p.latency[j], p.service[j] = e.LatencyMS, e.ServiceMS
	p.ids[j] = packIDs(e.Req, e.NPU)
	p.meta[j] = uint64(intern(&t.kinds, e.Kind)) |
		uint64(intern(&t.tiers, e.Tier))<<16 |
		uint64(intern(&t.notes, e.Note))<<32
}

// RecordSubmit records a KindSubmit edge (model in Note, no routing
// decision yet) without crossing an Event value: the hot-path variant
// of Record for the edge every accepted request fires. The model Sym
// comes from InternNote.
func (t *Tracer) RecordSubmit(cycle int64, req int, model Sym) {
	p, j := t.slot()
	p.cycle[j] = cycle
	p.ids[j] = packIDs(req, -1)
	p.meta[j] = kindSubmit | uint64(model)<<32
}

// RecordRoute records a KindRoute edge — the other per-request hot
// edge: the chosen backend, its tier (a Sym from InternTier) and the
// fluid latency estimate.
func (t *Tracer) RecordRoute(cycle int64, req, npu int, tier Sym, est float64) {
	p, j := t.slot()
	p.cycle[j] = cycle
	p.est[j] = est
	p.ids[j] = packIDs(req, npu)
	p.meta[j] = kindRoute | uint64(tier)<<16
}

// RecordStretch records a KindStretch edge: the request landed on a
// slowed backend and runs at factor times its nominal service time.
func (t *Tracer) RecordStretch(cycle int64, req, npu int, tier Sym, factor float64) {
	p, j := t.slot()
	p.cycle[j] = cycle
	p.factor[j] = factor
	p.ids[j] = packIDs(req, npu)
	p.meta[j] = kindStretch | uint64(tier)<<16
}

// Len reports how many events the ring currently holds.
func (t *Tracer) Len() int { return t.n }

// Total reports how many events were ever recorded; Total > Len means
// the ring evicted early events.
func (t *Tracer) Total() int { return t.total }

// Cap reports the ring's capacity.
func (t *Tracer) Cap() int { return t.cap }

// event materializes ring slot i back into the export shape. Only the
// float columns the slot's kind carries are read — the hot recording
// methods leave the others untouched (stale from evicted events), so
// the standard kinds read exactly their schema; kinds beyond the
// standard five only ever arrive via Record, which writes every column.
func (t *Tracer) event(i int) Event {
	p, j := t.pages[i>>pageShift], i&pageMask
	kind := uint16(p.meta[j])
	tier := uint16(p.meta[j] >> 16)
	note := uint16(p.meta[j] >> 32)
	e := Event{
		Cycle: p.cycle[j], Kind: t.kinds[kind],
		Req: int(int32(uint32(p.ids[j]))), NPU: int(int32(uint32(p.ids[j] >> 32))),
	}
	switch kind {
	case kindSubmit:
		e.Note = t.notes[note]
	case kindRoute:
		e.Tier, e.EstMS = t.tiers[tier], p.est[j]
	case kindStretch:
		e.Tier, e.Factor = t.tiers[tier], p.factor[j]
	case kindReclaim:
		e.Tier = t.tiers[tier]
	case kindComplete:
		e.Tier = t.tiers[tier]
		e.LatencyMS, e.ServiceMS = p.latency[j], p.service[j]
	default:
		e.Tier, e.Note = t.tiers[tier], t.notes[note]
		e.EstMS, e.Factor = p.est[j], p.factor[j]
		e.LatencyMS, e.ServiceMS = p.latency[j], p.service[j]
	}
	return e
}

// Events returns the recorded events oldest-first as a fresh slice the
// caller may mutate (MergeEvents does, to stamp sequence numbers).
func (t *Tracer) Events() []Event { return t.AppendEvents(make([]Event, 0, t.n)) }

// AppendEvents appends the recorded events to dst oldest-first and
// answers the extended slice, so a caller assembling a larger trace
// copies the ring once, straight into its own buffer.
func (t *Tracer) AppendEvents(dst []Event) []Event {
	// When the ring has wrapped the oldest surviving event sits at the
	// write cursor; before that, at slot zero.
	start := 0
	if t.total > t.n {
		start = t.w
	}
	for k := 0; k < t.n; k++ {
		i := start + k
		if i >= t.cap {
			i -= t.cap
		}
		dst = append(dst, t.event(i))
	}
	return dst
}

// Trace bundles the two telemetry halves a node session fills. Either
// half may be nil to enable only the other: a nil Tracer disables
// per-request events, a nil Recorder disables tick sampling.
type Trace struct {
	// Tracer receives per-request lifecycle events; nil disables them.
	Tracer *Tracer
	// Recorder receives one sample per autoscale tick; nil disables
	// sampling. Tick metrics exist only on nodes with an autoscaler
	// attached — the tick is the sampling clock.
	Recorder *Recorder
}

// New builds a Trace with both halves at their default capacities.
// Neither ring allocates storage until it records.
func New() *Trace {
	return &Trace{Tracer: NewTracer(0), Recorder: NewRecorder(0)}
}
