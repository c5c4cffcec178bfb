package telemetry

// metrics.go is the tick-sampled half of the telemetry layer: the
// serving node session captures one TickSample per autoscale tick —
// the same deterministic boundary the scaler evaluates on — so the
// metric series replays exactly with the stream. Gauges read the fluid
// router state (no re-simulation); counters are deltas since the
// previous tick.

// NPUSample is one backend's gauge row in a tick sample.
type NPUSample struct {
	// NPU is the backend index in spin-up order.
	NPU int `json:"npu"`
	// Tier is the backend's hardware tier; empty on homogeneous fleets.
	Tier string `json:"tier,omitempty"`
	// State is "active", "draining", "cordoned" or "failed".
	State string `json:"state"`
	// Speed is the backend's current service-time multiplier.
	Speed float64 `json:"speed"`
	// InFlight counts routed requests whose fluid horizon has not
	// drained at the tick.
	InFlight int `json:"in_flight"`
	// BacklogMS is the fluid backlog ahead of a new arrival, in ms.
	BacklogMS float64 `json:"backlog_ms"`
	// UtilFrac approximates the fraction of the tick the backend spent
	// busy: 1 minus the idle share of the fluid horizon (0 on failed
	// backends). It is a fluid-model estimate, not a simulated trace.
	UtilFrac float64 `json:"util_frac"`
	// Routed is how many requests the backend has ever been handed.
	Routed int `json:"routed"`
}

// TierGauge aggregates one hardware tier's gauges at a tick.
type TierGauge struct {
	// Tier is the tier name, in template order.
	Tier string `json:"tier"`
	// Active counts the tier's backends accepting new work.
	Active int `json:"active"`
	// InFlight sums the tier's in-flight requests.
	InFlight int `json:"in_flight"`
	// BacklogMS sums the tier's fluid backlog, in ms.
	BacklogMS float64 `json:"backlog_ms"`
}

// TickSample is the fleet's metric capture at one autoscale tick.
type TickSample struct {
	// Cycle is the tick instant on the virtual clock.
	Cycle int64 `json:"cycle"`
	// AtMS is Cycle in milliseconds.
	AtMS float64 `json:"at_ms"`
	// Fleet is the active backend count at the tick (before the
	// scaler's decision applies).
	Fleet int `json:"fleet"`
	// EstP95MS is the tick window's P95 fluid latency estimate — the
	// scaler's latency signal (decayed carry-over on empty windows).
	EstP95MS float64 `json:"est_p95_ms"`
	// Window is how many routing estimates the tick window held.
	Window int `json:"window"`
	// Completions counts requests whose fluid horizon drained since the
	// previous tick.
	Completions int `json:"completions"`
	// Reclaims counts requests reclaimed from failed backends since the
	// previous tick.
	Reclaims int `json:"reclaims"`
	// EstViolations counts tick-window estimates above the latency SLO.
	EstViolations int `json:"est_violations"`
	// NPUs holds one gauge row per backend, in spin-up order.
	NPUs []NPUSample `json:"npus"`
	// Tiers holds per-tier rollups in template order; nil on
	// homogeneous fleets.
	Tiers []TierGauge `json:"tiers,omitempty"`
}

// DefaultTickCap is the recorder ring's default capacity.
const DefaultTickCap = 2048

// Recorder is a fixed-capacity ring of tick samples, filled by the node
// session on every autoscale tick. Like Tracer it is single-threaded
// and evicts oldest-first past its capacity. Its buffer grows with the
// samples recorded, never past the capacity, and only a full ring
// wraps.
type Recorder struct {
	buf []TickSample
	// head mirrors Tracer.w: the next overwrite slot once full, always
	// total % cap, maintained without division.
	head, total, cap int
}

// NewRecorder builds a recorder ring holding up to cap samples;
// cap <= 0 selects DefaultTickCap. No sample storage is allocated until
// the first recording.
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = DefaultTickCap
	}
	return &Recorder{cap: cap}
}

// Record appends one tick sample, evicting the oldest when full.
func (r *Recorder) Record(s TickSample) {
	switch {
	case len(r.buf) == r.cap:
		r.buf[r.head] = s
		r.head++
		if r.head == r.cap {
			r.head = 0
		}
	case len(r.buf) == cap(r.buf):
		// Grow geometrically, clipped to the capacity.
		grown := make([]TickSample, len(r.buf), min(max(2*len(r.buf), 16), r.cap))
		copy(grown, r.buf)
		r.buf = append(grown, s)
	default:
		r.buf = append(r.buf, s)
	}
	r.total++
}

// Samples returns the recorded ticks oldest-first as a fresh slice.
func (r *Recorder) Samples() []TickSample {
	out := make([]TickSample, 0, len(r.buf))
	if r.total > len(r.buf) {
		out = append(out, r.buf[r.head:]...)
		out = append(out, r.buf[:r.head]...)
		return out
	}
	return append(out, r.buf...)
}
