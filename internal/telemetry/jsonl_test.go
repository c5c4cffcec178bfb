package telemetry

// jsonl_test.go holds EncodeJSONL to the encoding/json encoding it
// replaced: the old body is kept below as the reference, and named
// corner cases, a randomized sweep, a fuzz target and a reflection-built
// schema guard must all match it byte for byte (errors included).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// referenceEncodeJSONL is EncodeJSONL's encoding/json implementation,
// kept as the reference the strconv encoder must reproduce.
func referenceEncodeJSONL(events []Event, ticks []TickSample) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	// tickLine wraps a sample with the discriminator its JSONL line
	// leads with.
	type tickLine struct {
		Kind string `json:"kind"`
		TickSample
	}
	e, k := 0, 0
	for e < len(events) || k < len(ticks) {
		if k >= len(ticks) || (e < len(events) && events[e].Cycle <= ticks[k].Cycle) {
			if err := enc.Encode(events[e]); err != nil {
				return nil, fmt.Errorf("telemetry: encoding event %d: %w", e, err)
			}
			e++
			continue
		}
		if err := enc.Encode(tickLine{Kind: "tick", TickSample: ticks[k]}); err != nil {
			return nil, fmt.Errorf("telemetry: encoding tick %d: %w", k, err)
		}
		k++
	}
	return buf.Bytes(), nil
}

// checkEncode fails unless EncodeJSONL and the reference agree on the
// bytes, or on the error text, for one input.
func checkEncode(t *testing.T, label string, events []Event, ticks []TickSample) {
	t.Helper()
	want, wantErr := referenceEncodeJSONL(events, ticks)
	got, gotErr := EncodeJSONL(events, ticks)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding diverges from encoding/json:\n got  %q\n want %q", label, got, want)
	}
}

var negZero = math.Copysign(0, -1)

func TestEncodeJSONLMatchesReference(t *testing.T) {
	npu := NPUSample{NPU: 1, Tier: "slow", State: "active", Speed: 2, InFlight: 3,
		BacklogMS: 0.25, UtilFrac: 1, Routed: 9}
	for _, tc := range []struct {
		name   string
		events []Event
		ticks  []TickSample
	}{
		{name: "empty"},
		{name: "omitempty zeros", events: []Event{{Kind: KindSubmit, NPU: -1}}},
		{name: "negative zero", events: []Event{{AtMS: negZero, EstMS: negZero, Factor: negZero,
			LatencyMS: negZero, ServiceMS: negZero, Kind: KindRoute}},
			ticks: []TickSample{{AtMS: negZero, EstP95MS: negZero,
				NPUs: []NPUSample{{Speed: negZero, BacklogMS: negZero, UtilFrac: negZero}}}}},
		{name: "every event field", events: []Event{{Seq: 7, Cycle: 1 << 40, AtMS: 12.5,
			Kind: KindComplete, Req: -3, NPU: 2, Tier: "fast", EstMS: 1.25, Factor: 3,
			LatencyMS: 4.75, ServiceMS: 0.1, Note: "RNN-MT1"}}},
		{name: "float switch at 1e-6", events: []Event{
			{EstMS: 1e-6}, {EstMS: math.Nextafter(1e-6, 0)}, {EstMS: -1e-6},
			{EstMS: -math.Nextafter(1e-6, 0)}, {EstMS: 1e-7}, {EstMS: 5e-324}}},
		{name: "float switch at 1e21", events: []Event{
			{EstMS: 1e21}, {EstMS: math.Nextafter(1e21, 0)}, {EstMS: -1e21},
			{EstMS: 1e20}, {EstMS: math.MaxFloat64}, {EstMS: 123456789012345678901.0}}},
		{name: "exponent cleanup", events: []Event{
			{Factor: 1e-9}, {Factor: 2.5e-10}, {Factor: 1e-100}, {Factor: 1e-7}, {Factor: 1e22}}},
		{name: "string escapes", events: []Event{
			{Kind: `<script>&"quoted"\path`, Tier: "tab\there\nnew\rret\bbs\fff",
				Note: "\x00\x01\x1f\x7f \u00e9 \u65e5\u672c \u2028 \u2029 \ufffd"},
			{Kind: "bad\xffutf8\xe2\x80", Note: "\xc3"}}},
		{name: "nil and empty NPUs", ticks: []TickSample{{Cycle: 1}, {Cycle: 2, NPUs: []NPUSample{}}}},
		{name: "nil and empty tiers", ticks: []TickSample{
			{NPUs: []NPUSample{npu}}, {NPUs: []NPUSample{npu}, Tiers: []TierGauge{}},
			{NPUs: []NPUSample{npu, {State: "failed"}},
				Tiers: []TierGauge{{Tier: "fast", Active: 1, InFlight: 2, BacklogMS: 0.5}, {}}}}},
		{name: "interleave", events: []Event{{Cycle: 5}, {Cycle: 10}, {Cycle: 30}},
			ticks: []TickSample{{Cycle: 0}, {Cycle: 10}, {Cycle: 40}}},
	} {
		checkEncode(t, tc.name, tc.events, tc.ticks)
	}
}

func TestEncodeJSONLNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		events := []Event{{Kind: KindSubmit}, {Kind: KindRoute, EstMS: 1, LatencyMS: f, ServiceMS: math.NaN()}}
		if _, err := EncodeJSONL(events, nil); err == nil {
			t.Errorf("event with %v encoded without error", f)
		}
		checkEncode(t, fmt.Sprint("event ", f), events, nil)
		ticks := []TickSample{{}, {NPUs: []NPUSample{{}, {UtilFrac: f}}}}
		if _, err := EncodeJSONL(nil, ticks); err == nil {
			t.Errorf("tick with %v encoded without error", f)
		}
		checkEncode(t, fmt.Sprint("tick ", f), nil, ticks)
		checkEncode(t, fmt.Sprint("tier ", f), nil, []TickSample{{Tiers: []TierGauge{{BacklogMS: f}}}})
		checkEncode(t, fmt.Sprint("at_ms ", f), []Event{{AtMS: f}}, nil)
	}
}

// pieces are the string fragments random strings are built from: plain
// text, every escape class encoding/json distinguishes, multi-byte
// UTF-8, and invalid or truncated sequences.
var pieces = []string{"", "a", "fast", "RNN-MT1", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\b",
	"\f", "\n", "\r", "\t", "\x7f", "\u00e9", "\u65e5\u672c", "\u2028", "\u2029", "\ufffd", "\xff", "\xe2\x80", "\xc3"}

func randString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.IntN(4); n > 0; n-- {
		b.WriteString(pieces[rng.IntN(len(pieces))])
	}
	return b.String()
}

// randFloat draws mostly from the formatting boundaries, sometimes a
// wide-range random value; non-finite values only when allowed.
func randFloat(rng *rand.Rand, nonFinite bool) float64 {
	special := []float64{0, negZero, 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), 1e21,
		math.Nextafter(1e21, 0), 1e-9, 2.5e-7, 1e300, 5e-324, math.MaxFloat64, 1 << 53}
	switch r := rng.IntN(10); {
	case r < 4:
		return special[rng.IntN(len(special))]
	case r < 5 && nonFinite:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.IntN(3)]
	default:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(60)-30))
	}
}

func randInt(rng *rand.Rand) int {
	return []int{0, -1, 1, math.MaxInt64, math.MinInt64, rng.IntN(1 << 20)}[rng.IntN(6)]
}

func randTrace(rng *rand.Rand, nonFinite bool) ([]Event, []TickSample) {
	var cycle int64
	events := make([]Event, rng.IntN(6))
	for i := range events {
		cycle += int64(rng.IntN(3))
		events[i] = Event{Seq: randInt(rng), Cycle: cycle, AtMS: randFloat(rng, nonFinite),
			Kind: randString(rng), Req: randInt(rng), NPU: randInt(rng), Tier: randString(rng),
			EstMS: randFloat(rng, nonFinite), Factor: randFloat(rng, nonFinite),
			LatencyMS: randFloat(rng, nonFinite), ServiceMS: randFloat(rng, nonFinite),
			Note: randString(rng)}
	}
	cycle = 0
	ticks := make([]TickSample, rng.IntN(4))
	for i := range ticks {
		cycle += int64(rng.IntN(4))
		s := TickSample{Cycle: cycle, AtMS: randFloat(rng, nonFinite), Fleet: randInt(rng),
			EstP95MS: randFloat(rng, nonFinite), Window: randInt(rng), Completions: randInt(rng),
			Reclaims: randInt(rng), EstViolations: randInt(rng)}
		if n := rng.IntN(4) - 1; n >= 0 {
			s.NPUs = make([]NPUSample, n)
			for j := range s.NPUs {
				s.NPUs[j] = NPUSample{NPU: randInt(rng), Tier: randString(rng), State: randString(rng),
					Speed: randFloat(rng, nonFinite), InFlight: randInt(rng),
					BacklogMS: randFloat(rng, nonFinite), UtilFrac: randFloat(rng, nonFinite),
					Routed: randInt(rng)}
			}
		}
		if n := rng.IntN(4) - 1; n >= 0 {
			s.Tiers = make([]TierGauge, n)
			for j := range s.Tiers {
				s.Tiers[j] = TierGauge{Tier: randString(rng), Active: randInt(rng),
					InFlight: randInt(rng), BacklogMS: randFloat(rng, nonFinite)}
			}
		}
		ticks[i] = s
	}
	return events, ticks
}

func TestEncodeJSONLRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2))
	for i := 0; i < 3000; i++ {
		events, ticks := randTrace(rng, i%4 == 3)
		checkEncode(t, fmt.Sprintf("trace %d", i), events, ticks)
	}
}

func FuzzEncodeJSONL(f *testing.F) {
	f.Add(int64(3), 1.5, 0.0, "submit", "fast", "CNN-AN", 2.0, int8(1), int8(0))
	f.Add(int64(0), negZero, 1e-7, "<&>", "\u2028", "\xff", math.NaN(), int8(-1), int8(-1))
	f.Add(int64(-9), 1e21, math.Inf(1), `"\`, "", "\x01", 1e-6, int8(3), int8(2))
	f.Fuzz(func(t *testing.T, cycle int64, at, est float64, kind, tier, note string,
		speed float64, npus, tiers int8) {
		events := []Event{
			{Seq: int(cycle), Cycle: cycle, AtMS: at, Kind: kind, Req: int(cycle >> 3), NPU: -1, Note: note},
			{Cycle: cycle, AtMS: at, Kind: KindRoute, Tier: tier, EstMS: est, Factor: speed,
				LatencyMS: at, ServiceMS: est},
		}
		s := TickSample{Cycle: cycle, AtMS: at, Fleet: int(npus), EstP95MS: est}
		if npus >= 0 {
			s.NPUs = make([]NPUSample, npus%8)
			for i := range s.NPUs {
				s.NPUs[i] = NPUSample{NPU: i, Tier: tier, State: kind, Speed: speed,
					BacklogMS: est, UtilFrac: at, Routed: int(cycle)}
			}
		}
		if tiers >= 0 {
			s.Tiers = make([]TierGauge, tiers%4)
			for i := range s.Tiers {
				s.Tiers[i] = TierGauge{Tier: note, Active: i, BacklogMS: speed}
			}
		}
		checkEncode(t, "fuzz", events, []TickSample{s})
	})
}

// fill sets every field reachable from v to a non-zero value, slices
// to two filled elements. A field of a kind it does not know fails the
// test, so a new field type must be taught here and to the encoder.
func fill(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d<&>", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n)
		}
	default:
		t.Fatalf("schema guard: field kind %s not handled; teach fill and EncodeJSONL", v.Kind())
	}
}

// TestEncodeJSONLSchemaGuard fills every field of Event, TickSample,
// NPUSample and TierGauge: a field added to one of them without
// teaching the encoder shows up in the reference encoding only.
func TestEncodeJSONLSchemaGuard(t *testing.T) {
	var e Event
	var s TickSample
	n := 0
	fill(t, reflect.ValueOf(&e).Elem(), &n)
	fill(t, reflect.ValueOf(&s).Elem(), &n)
	s.Cycle = e.Cycle + 1
	checkEncode(t, "filled", []Event{e}, []TickSample{s})
}

func TestEncodeJSONLAllocatesOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	var events []Event
	var ticks []TickSample
	for len(events) < 500 {
		more, moreTicks := randTrace(rng, false)
		events, ticks = append(events, more...), append(ticks, moreTicks...)
	}
	var out []byte
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if out, err = EncodeJSONL(events, ticks); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("EncodeJSONL made %v allocations, want 1 (the output)", allocs)
	}
	if len(out) == 0 || len(out) != cap(out) {
		t.Errorf("output len %d cap %d, want an exact-size non-empty buffer", len(out), cap(out))
	}
}
