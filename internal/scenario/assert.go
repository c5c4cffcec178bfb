package scenario

// assert.go is the scenario assertion engine: each assertion is a
// machine-checkable claim about the run — the SLO-violation fraction,
// the fleet-size envelope over a window, or recovery from the first
// disruption by a deadline — evaluated against the fleet timeline and
// served statistics of the run's report. A failed assertion fails the
// report, never the run: chaos scenarios exist to observe degraded
// behaviour, so the executor always finishes and reports.

import (
	"fmt"
	"time"

	"repro/internal/ctl"
	"repro/internal/npu"
	"repro/internal/serving"
)

// AssertKind identifies an assertion form.
type AssertKind int

const (
	// AssertSLO bounds the fraction of measured requests exceeding the
	// scaler's latency SLO: slo_violation_frac < Max. It requires an
	// attached scaler (the SLO defines the fraction).
	AssertSLO AssertKind = iota
	// AssertFleetBetween bounds the routable fleet size over a window:
	// Lo <= fleet <= Hi at every instant of [From, To].
	AssertFleetBetween
	// AssertRecoveredBy requires the routable fleet to have returned to
	// at least its size before the first disruption (the first fail or
	// cordon event) at some instant by the deadline By — a later
	// voluntary scale-down does not undo recovery. It passes vacuously
	// when the scenario injects no disruption.
	AssertRecoveredBy
	// AssertTierSLO bounds one hardware tier's SLO-violation fraction:
	// tier <name> slo_violation_frac < Max. It requires a scaler and a
	// tiered fleet template naming the tier.
	AssertTierSLO
)

// Assertion is one pass/fail condition of a scenario.
type Assertion struct {
	// Kind selects the form; the fields below apply per kind.
	Kind AssertKind
	// Max is AssertSLO's exclusive violation-fraction bound.
	Max float64
	// Lo, Hi, From, To are AssertFleetBetween's envelope and window.
	Lo, Hi   int
	From, To time.Duration
	// By is AssertRecoveredBy's deadline.
	By time.Duration
	// Tier is AssertTierSLO's tier name.
	Tier string
}

// String renders the assertion in the scenario text form.
func (a Assertion) String() string {
	switch a.Kind {
	case AssertSLO:
		return fmt.Sprintf("assert slo_violation_frac < %g", a.Max)
	case AssertFleetBetween:
		return fmt.Sprintf("assert fleet between %d %d during %s %s", a.Lo, a.Hi, a.From, a.To)
	case AssertRecoveredBy:
		return fmt.Sprintf("assert recovered_by %s", a.By)
	case AssertTierSLO:
		return fmt.Sprintf("assert tier %s slo_violation_frac < %g", a.Tier, a.Max)
	default:
		return fmt.Sprintf("assert <unknown kind %d>", int(a.Kind))
	}
}

// validate checks the assertion's shape against its scenario.
func (a Assertion) validate(sc *Scenario) error {
	switch a.Kind {
	case AssertSLO:
		if sc.Scaler == "" {
			return fmt.Errorf("slo_violation_frac needs a scaler (the SLO defines the fraction)")
		}
		if !(a.Max > 0 && a.Max <= 1) { // NaN fails too
			return fmt.Errorf("violation bound %v outside (0, 1]", a.Max)
		}
	case AssertFleetBetween:
		if a.Lo < 0 || a.Hi < a.Lo {
			return fmt.Errorf("fleet envelope [%d, %d] is empty", a.Lo, a.Hi)
		}
		if a.From < 0 || a.To < a.From {
			return fmt.Errorf("window [%s, %s] is empty", a.From, a.To)
		}
	case AssertRecoveredBy:
		if a.By <= 0 {
			return fmt.Errorf("non-positive deadline %v", a.By)
		}
	case AssertTierSLO:
		if sc.Scaler == "" {
			return fmt.Errorf("tier slo_violation_frac needs a scaler (the SLO defines the fraction)")
		}
		if !(a.Max > 0 && a.Max <= 1) { // NaN fails too
			return fmt.Errorf("violation bound %v outside (0, 1]", a.Max)
		}
		if sc.Fleet.Tiers == "" {
			return fmt.Errorf("tier assertion %q needs a tiered fleet (fleet tiers=...)", a.Tier)
		}
		specs, err := serving.ParseFleetTemplate(sc.Fleet.Tiers)
		if err != nil {
			return err
		}
		found := false
		for _, s := range specs {
			found = found || s.Name == a.Tier
		}
		if !found {
			return fmt.Errorf("tier %q not in fleet template %q", a.Tier, sc.Fleet.Tiers)
		}
	default:
		return fmt.Errorf("unknown assertion kind %d", int(a.Kind))
	}
	return nil
}

// evaluate runs every assertion against the run's report and answers
// the outcomes and the verdict. Instants compare on the report's
// millisecond clock: a bound converts through the cycle it falls on,
// exactly as the report converts event cycles, and Millis is strictly
// increasing over cycle counts, so every comparison decides what the
// same comparison in cycles would.
func (sc *Scenario) evaluate(rep *Report, cfg npu.Config) ([]ctl.AssertOutcome, bool) {
	at := func(d time.Duration) float64 { return cfg.Millis(cfg.Cycles(d)) }
	out := make([]ctl.AssertOutcome, len(sc.Asserts))
	passed := true
	for i, a := range sc.Asserts {
		res := ctl.AssertOutcome{Expr: a.String()}
		switch a.Kind {
		case AssertSLO:
			got := rep.SLO.ViolationFrac
			res.Pass = got < a.Max
			res.Detail = fmt.Sprintf("violation fraction %.4f (bound %g)", got, a.Max)
		case AssertFleetBetween:
			res.Pass, res.Detail = evalFleetBetween(a, rep.Timeline, at(a.From), at(a.To))
		case AssertRecoveredBy:
			res.Pass, res.Detail = evalRecoveredBy(a, rep.Timeline, at(a.By))
		case AssertTierSLO:
			res.Pass, res.Detail = evalTierSLO(a, rep.Tiers)
		}
		out[i] = res
		passed = passed && res.Pass
	}
	return out, passed
}

// fleetAt walks the chronological fleet timeline and answers the
// routable fleet size at instant ms (events at exactly ms have applied).
func fleetAt(events []ctl.ReportEvent, ms float64) int {
	v := 0
	for _, e := range events {
		if e.AtMS > ms {
			break
		}
		v = e.Fleet
	}
	return v
}

// evalFleetBetween checks the fleet envelope at the window start and at
// every fleet change inside the window [fromMS, toMS]; between changes
// the step function is constant, so those instants cover the whole
// interval.
func evalFleetBetween(a Assertion, events []ctl.ReportEvent, fromMS, toMS float64) (bool, string) {
	check := func(v int, ms float64) (bool, string) {
		if v < a.Lo || v > a.Hi {
			return false, fmt.Sprintf("fleet %d at %.2fms outside [%d, %d]", v, ms, a.Lo, a.Hi)
		}
		return true, ""
	}
	if ok, detail := check(fleetAt(events, fromMS), fromMS); !ok {
		return false, detail
	}
	for _, e := range events {
		if e.AtMS <= fromMS || e.AtMS > toMS {
			continue
		}
		if ok, detail := check(e.Fleet, e.AtMS); !ok {
			return false, detail
		}
	}
	return true, fmt.Sprintf("fleet stayed in [%d, %d] over [%s, %s]", a.Lo, a.Hi, a.From, a.To)
}

// evalTierSLO checks one tier's realized SLO-violation fraction against
// the bound. Validation pinned the tier to the fleet template, so a
// missing breakdown means the tier served nothing measurable — reported
// as a vacuous pass with the reason.
func evalTierSLO(a Assertion, tiers []ctl.TierSummary) (bool, string) {
	for _, t := range tiers {
		if t.Tier != a.Tier {
			continue
		}
		if t.Measured == 0 {
			return true, fmt.Sprintf("tier %s measured no requests (vacuous)", a.Tier)
		}
		got := t.SLOViolationFrac
		return got < a.Max, fmt.Sprintf("tier %s violation fraction %.4f over %d measured (bound %g)",
			a.Tier, got, t.Measured, a.Max)
	}
	return true, fmt.Sprintf("tier %s measured no requests (vacuous)", a.Tier)
}

// evalRecoveredBy checks whether the fleet returned to its size just
// before the first disruption (fail or cordon) at any instant up to the
// deadline byMS; a voluntary scale-down after that instant is the
// scaler tracking load, not a recovery failure.
func evalRecoveredBy(a Assertion, events []ctl.ReportEvent, byMS float64) (bool, string) {
	baseline, disruptMS, disrupted := 0, 0.0, false
	for _, e := range events {
		if e.Kind == "fail" || e.Kind == "cordon" {
			baseline, disruptMS, disrupted = e.Fleet-e.Delta, e.AtMS, true
			break
		}
	}
	if !disrupted {
		return true, "no disruption injected (vacuous)"
	}
	peak := 0
	for _, e := range events {
		if e.AtMS > disruptMS && e.AtMS <= byMS && e.Fleet > peak {
			peak = e.Fleet
		}
	}
	if peak >= baseline {
		return true, fmt.Sprintf("fleet reached %d (pre-disruption %d) by %s", peak, baseline, a.By)
	}
	return false, fmt.Sprintf("fleet peaked at %d after the disruption, below pre-disruption %d by %s",
		peak, baseline, a.By)
}
