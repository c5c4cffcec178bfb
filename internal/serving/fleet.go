package serving

// fleet.go is the heterogeneous-fleet surface of the node session: a
// weighted tier template ("70%:fast,30%:slow") partitions the node into
// hardware classes, each tier running the server's base npu.Config with
// a derated clock. A slow tier's backends serve every request at
// factor× the nominal service time, exactly as chaos slowdowns do: the
// backend records the factor with the request, and its execution scales
// each instruction's latency, so the scheduler, the fluid router state
// and the realized simulation all agree on the tier's speed — and the
// speed-aware LeastWork router compares backends in normalized
// completion time rather than raw backlog. Scale-ups pick which tier to
// add with the D'Hondt rule (autoscale.PickTier), keeping the live
// fleet proportioned to the template as it grows and shrinks.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/npu"
)

// Tier is one hardware class of a heterogeneous fleet: a share of the
// node's backends running a common per-tier npu.Config.
type Tier struct {
	// Name labels the tier in fleet listings and timelines.
	Name string
	// Weight is the tier's share of the fleet in percent; a node's tier
	// weights must sum to exactly 100.
	Weight int
	// NPU is the tier's hardware configuration. It must match the
	// server's base config in every respect but the clock, which may be
	// derated (FreqHz at or below the base) — the derate factor is the
	// tier's service-time multiplier.
	NPU npu.Config
}

// TierSpec is one parsed entry of a fleet template, before any
// hardware config is attached: FleetFromTemplate turns it into a Tier
// against a base npu.Config, and syntax-only validators (the scenario
// parser) stop here.
type TierSpec struct {
	// Name is the tier label from the template.
	Name string
	// Weight is the tier's fleet share in percent.
	Weight int
	// Factor is the service-time derate (>= 1; 1 = full speed).
	Factor float64
}

// builtinTierFactor resolves the factor of a named builtin tier.
func builtinTierFactor(name string) (float64, bool) {
	switch name {
	case "fast":
		return 1, true
	case "slow":
		return 2, true
	}
	return 0, false
}

// ParseFleetTemplate parses a weighted tier template of the form
// "<percent>%:<name>[@<factor>],..." — e.g. "70%:fast,30%:slow" or
// "50%:fast,50%:ancient@4". The builtin names fast (factor 1) and slow
// (factor 2) need no explicit factor; any other name requires one.
// Weights must be positive integers summing to exactly 100, names must
// be unique, and factors must be at least 1.
func ParseFleetTemplate(spec string) ([]TierSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("serving: empty fleet template")
	}
	parts := strings.Split(spec, ",")
	out := make([]TierSpec, 0, len(parts))
	total := 0
	for _, part := range parts {
		entry := strings.TrimSpace(part)
		pctStr, rest, ok := strings.Cut(entry, "%")
		if !ok || !strings.HasPrefix(rest, ":") {
			return nil, fmt.Errorf("serving: fleet tier %q: want <percent>%%:<name>[@<factor>]", entry)
		}
		pct, err := strconv.Atoi(pctStr)
		if err != nil || pct <= 0 || pct > 100 {
			return nil, fmt.Errorf("serving: fleet tier %q: weight must be a percentage in [1, 100]", entry)
		}
		name, factorStr, hasFactor := strings.Cut(rest[1:], "@")
		if name == "" || strings.ContainsAny(name, " \t%@:") {
			return nil, fmt.Errorf("serving: fleet tier %q: bad tier name %q", entry, name)
		}
		var factor float64
		switch {
		case hasFactor:
			factor, err = strconv.ParseFloat(factorStr, 64)
			// Written so that NaN fails it too.
			if err != nil || !(factor >= 1 && factor <= npu.MaxSpeedFactor) {
				return nil, fmt.Errorf("serving: fleet tier %q: factor must be a number in [1, %d]", entry, npu.MaxSpeedFactor)
			}
		default:
			var known bool
			if factor, known = builtinTierFactor(name); !known {
				return nil, fmt.Errorf("serving: fleet tier %q: unknown tier %q (builtins: fast, slow); custom tiers need an explicit @<factor>", entry, name)
			}
		}
		for _, prev := range out {
			if prev.Name == name {
				return nil, fmt.Errorf("serving: fleet template repeats tier %q", name)
			}
		}
		total += pct
		out = append(out, TierSpec{Name: name, Weight: pct, Factor: factor})
	}
	if total != 100 {
		return nil, fmt.Errorf("serving: fleet tier weights sum to %d%%, want 100%%", total)
	}
	return out, nil
}

// FleetFromTemplate parses a weighted tier template and binds it to a
// base hardware configuration: each tier runs the base config with its
// clock derated by the tier's factor.
func FleetFromTemplate(base npu.Config, spec string) ([]Tier, error) {
	specs, err := ParseFleetTemplate(spec)
	if err != nil {
		return nil, err
	}
	out := make([]Tier, len(specs))
	for i, ts := range specs {
		cfg := base
		cfg.FreqHz = base.FreqHz / ts.Factor
		out[i] = Tier{Name: ts.Name, Weight: ts.Weight, NPU: cfg}
	}
	return out, nil
}

// fleetSpeeds validates a tier set against the server's base config and
// returns each tier's service-time derate factor (base clock over tier
// clock, >= 1).
func fleetSpeeds(tiers []Tier, base npu.Config) ([]float64, error) {
	speeds := make([]float64, len(tiers))
	total := 0
	for i, tier := range tiers {
		if tier.Name == "" {
			return nil, fmt.Errorf("serving: fleet tier %d has no name", i)
		}
		for _, prev := range tiers[:i] {
			if prev.Name == tier.Name {
				return nil, fmt.Errorf("serving: fleet repeats tier %q", tier.Name)
			}
		}
		if tier.Weight <= 0 {
			return nil, fmt.Errorf("serving: fleet tier %q has non-positive weight %d", tier.Name, tier.Weight)
		}
		// Written so that a NaN clock fails it too.
		if !(tier.NPU.FreqHz > 0 && tier.NPU.FreqHz <= base.FreqHz && base.FreqHz/tier.NPU.FreqHz <= npu.MaxSpeedFactor) {
			return nil, fmt.Errorf("serving: fleet tier %q clock %.0fHz outside [base/%d, base %.0fHz]",
				tier.Name, tier.NPU.FreqHz, npu.MaxSpeedFactor, base.FreqHz)
		}
		norm := tier.NPU
		norm.FreqHz = base.FreqHz
		if norm != base {
			return nil, fmt.Errorf("serving: fleet tier %q differs from the server's base config beyond the clock", tier.Name)
		}
		speeds[i] = base.FreqHz / tier.NPU.FreqHz
		total += tier.Weight
	}
	if total != 100 {
		return nil, fmt.Errorf("serving: fleet tier weights sum to %d%%, want 100%%", total)
	}
	return speeds, nil
}

// apportionFleet splits n backends across the tiers by largest
// remainder: every tier gets the floor of its exact share, and the
// leftovers go to the largest fractional remainders (earliest tier on
// ties). Weights sum to 100, so at most len(weights)-1 leftovers exist
// and each tier gains at most one.
func apportionFleet(weights []int, n int) []int {
	counts := make([]int, len(weights))
	rem := make([]int, len(weights))
	assigned := 0
	for i, w := range weights {
		counts[i] = n * w / 100
		rem[i] = n * w % 100
		assigned += counts[i]
	}
	for assigned < n {
		best := 0
		for i := 1; i < len(rem); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		assigned++
	}
	return counts
}
