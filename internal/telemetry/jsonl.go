package telemetry

// jsonl.go is the JSON Lines encoder behind EncodeJSONL. It writes the
// bytes encoding/json would write for Event and the tick line — field
// order, omitempty, float formatting and HTML-safe string escaping
// included — with strconv appends instead of reflection, so encoding a
// trace allocates its output and nothing else. The reference
// encoding/json body lives in jsonl_test.go, which holds the two
// byte-identical.

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// EncodeJSONL renders a merged trace and a metric series as JSON Lines:
// one object per line, events and tick samples interleaved in cycle
// order (events first at equal cycles). Tick lines carry kind "tick" to
// distinguish them from lifecycle events. The encoding is deterministic
// — same inputs, same bytes — which is what lets CI diff two replays.
//
// The bytes are those encoding/json writes for the same values, and a
// NaN or infinite float is an error as it is there. The output is one
// allocation of exactly its length: a first pass sizes every line in a
// stack buffer, the second writes them.
func EncodeJSONL(events []Event, ticks []TickSample) ([]byte, error) {
	var w jsonl
	// A tick line grows ~100 bytes per NPU; one past this buffer (a
	// fleet of 35 or more) moves the sizing pass to the heap, once.
	var line [4096]byte
	_, n, err := w.lines(line[:0], events, ticks, true)
	if err != nil || n == 0 {
		return nil, err
	}
	out, _, err := w.lines(make([]byte, 0, n), events, ticks, false)
	return out, err
}

// jsonl appends JSON text in the style of strconv's Append functions:
// every method takes the buffer and answers the extended one, which
// keeps a caller's stack buffer on the stack. The first float
// encoding/json refuses (NaN or ±Inf, never zero) sticks in bad, and
// the line it belongs to is abandoned.
type jsonl struct {
	bad float64
}

// lines appends every event and tick line to b in cycle order (events
// first at equal cycles). With reuse set, each line overwrites the
// previous one and lines answers only the total length, which sizes the
// output without keeping it; otherwise it answers b with every line
// appended.
func (w *jsonl) lines(b []byte, events []Event, ticks []TickSample, reuse bool) ([]byte, int, error) {
	n := 0
	e, k := 0, 0
	for e < len(events) || k < len(ticks) {
		if reuse {
			b = b[:0]
		}
		start := len(b)
		if k >= len(ticks) || (e < len(events) && events[e].Cycle <= ticks[k].Cycle) {
			if b = w.event(b, &events[e]); w.bad != 0 {
				return nil, 0, unsupported("event", e, w.bad)
			}
			e++
		} else {
			if b = w.tick(b, &ticks[k]); w.bad != 0 {
				return nil, 0, unsupported("tick", k, w.bad)
			}
			k++
		}
		n += len(b) - start
	}
	return b, n, nil
}

// unsupported reports a float encoding/json refuses, worded as
// encoding/json words it.
func unsupported(line string, i int, f float64) error {
	return fmt.Errorf("telemetry: encoding %s %d: json: unsupported value: %s",
		line, i, strconv.FormatFloat(f, 'g', -1, 64))
}

// event appends one Event line.
func (w *jsonl) event(b []byte, e *Event) []byte {
	b = w.int(b, `{"seq":`, int64(e.Seq))
	b = w.int(b, `,"cycle":`, e.Cycle)
	b = w.float(b, `,"at_ms":`, e.AtMS)
	b = w.str(b, `,"kind":`, e.Kind)
	b = w.int(b, `,"req":`, int64(e.Req))
	b = w.int(b, `,"npu":`, int64(e.NPU))
	if e.Tier != "" {
		b = w.str(b, `,"tier":`, e.Tier)
	}
	if e.EstMS != 0 {
		b = w.float(b, `,"est_ms":`, e.EstMS)
	}
	if e.Factor != 0 {
		b = w.float(b, `,"factor":`, e.Factor)
	}
	if e.LatencyMS != 0 {
		b = w.float(b, `,"latency_ms":`, e.LatencyMS)
	}
	if e.ServiceMS != 0 {
		b = w.float(b, `,"service_ms":`, e.ServiceMS)
	}
	if e.Note != "" {
		b = w.str(b, `,"note":`, e.Note)
	}
	return append(b, "}\n"...)
}

// tick appends one tick line: the sample's fields behind a leading
// "kind":"tick" discriminator.
func (w *jsonl) tick(b []byte, s *TickSample) []byte {
	b = append(b, `{"kind":"tick"`...)
	b = w.int(b, `,"cycle":`, s.Cycle)
	b = w.float(b, `,"at_ms":`, s.AtMS)
	b = w.int(b, `,"fleet":`, int64(s.Fleet))
	b = w.float(b, `,"est_p95_ms":`, s.EstP95MS)
	b = w.int(b, `,"window":`, int64(s.Window))
	b = w.int(b, `,"completions":`, int64(s.Completions))
	b = w.int(b, `,"reclaims":`, int64(s.Reclaims))
	b = w.int(b, `,"est_violations":`, int64(s.EstViolations))
	b = append(b, `,"npus":`...)
	if s.NPUs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range s.NPUs {
			v := &s.NPUs[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = w.int(b, `{"npu":`, int64(v.NPU))
			if v.Tier != "" {
				b = w.str(b, `,"tier":`, v.Tier)
			}
			b = w.str(b, `,"state":`, v.State)
			b = w.float(b, `,"speed":`, v.Speed)
			b = w.int(b, `,"in_flight":`, int64(v.InFlight))
			b = w.float(b, `,"backlog_ms":`, v.BacklogMS)
			b = w.float(b, `,"util_frac":`, v.UtilFrac)
			b = w.int(b, `,"routed":`, int64(v.Routed))
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(s.Tiers) > 0 {
		b = append(b, `,"tiers":[`...)
		for i := range s.Tiers {
			g := &s.Tiers[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = w.str(b, `{"tier":`, g.Tier)
			b = w.int(b, `,"active":`, int64(g.Active))
			b = w.int(b, `,"in_flight":`, int64(g.InFlight))
			b = w.float(b, `,"backlog_ms":`, g.BacklogMS)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// int appends key then v.
func (w *jsonl) int(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// float appends key then f as encoding/json formats a float64: the
// shortest round-trip digits, in exponent form below 1e-6 and from 1e21
// up, with a negative exponent's leading zero dropped (e-07 → e-7).
func (w *jsonl) float(b []byte, key string, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.bad == 0 {
			w.bad = f
		}
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(append(b, key...), f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// str appends key then s as an HTML-safe JSON string, escaped exactly as
// encoding/json escapes it: ", \ and control bytes, <, > and &, invalid
// UTF-8 (as U+FFFD) and U+2028/U+2029.
func (w *jsonl) str(b []byte, key, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(append(b, key...), '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
