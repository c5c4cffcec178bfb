package scenario

// parse.go reads the declarative scenario text: a line-oriented,
// Go-flavoured format (no YAML/JSON dependency) where each line is one
// directive and '#' starts a comment. The full grammar, one directive
// per line, order irrelevant except that duplicates are rejected:
//
//	scenario <name>
//	fleet initial=N [min=N max=N] [tiers=70%:fast,30%:slow]
//	routing round-robin|least-queued|least-work
//	policy <label> [preemptive] [mechanism=<label>]
//	scaler <label> slo=<duration> [tick=<duration>]
//	models <name> [<name>...]
//	seed <n>
//	warmup <fraction>
//	segment <duration>
//	load <f> [<f>...]
//	at <duration> fail|restore|cordon|uncordon npu<i>
//	at <duration> slowdown npu<i> x<factor>
//	assert slo_violation_frac < <f>
//	assert tier <name> slo_violation_frac < <f>
//	assert fleet between <lo> <hi> during <from> <to>
//	assert recovered_by <duration>
//
// Durations use Go syntax ("40ms", "1.5s"); NPU targets accept "npu2"
// or bare "2"; slowdown factors accept "x2.5" or bare "2.5". Errors
// carry the line number.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/sched"
	"repro/internal/serving"
)

// defaultModels is the interactive mix scenarios serve unless a models
// directive overrides it: the light models, so single-digit-millisecond
// SLOs are attainable and a 40ms segment holds tens of requests (the
// same mix the autoscale surfaces default to).
var defaultModels = []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"}

// Parse reads a scenario from its text form and validates it.
func Parse(src string) (*Scenario, error) {
	sc := &Scenario{
		Scheduler: sched.Spec{Policy: "PREMA", Preemptive: true},
		Routing:   cluster.LeastWork,
		Models:    append([]string(nil), defaultModels...),
	}
	seen := map[string]int{}
	for i, raw := range strings.Split(src, "\n") {
		line := i + 1
		text := raw
		if idx := strings.IndexByte(text, '#'); idx >= 0 {
			text = text[:idx]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		key := fields[0]
		// The repeatable directives accumulate; everything else must
		// appear at most once, so a typo'd override fails loudly.
		if key != "at" && key != "assert" {
			if prev, dup := seen[key]; dup {
				return nil, fmt.Errorf("scenario: line %d: duplicate %q directive (first on line %d)", line, key, prev)
			}
			seen[key] = line
		}
		if err := sc.parseDirective(key, fields[1:]); err != nil {
			return nil, fmt.Errorf("scenario: line %d: %w", line, err)
		}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// parseDirective dispatches one directive line (fields after the
// keyword).
func (sc *Scenario) parseDirective(key string, args []string) error {
	switch key {
	case "scenario":
		if len(args) != 1 {
			return fmt.Errorf("usage: scenario <name>")
		}
		sc.Name = args[0]
	case "fleet":
		return sc.parseFleet(args)
	case "routing":
		if len(args) != 1 {
			return fmt.Errorf("usage: routing round-robin|least-queued|least-work")
		}
		switch args[0] {
		case "round-robin":
			sc.Routing = cluster.RoundRobin
		case "least-queued":
			sc.Routing = cluster.LeastQueued
		case "least-work":
			sc.Routing = cluster.LeastWork
		default:
			return fmt.Errorf("unknown routing policy %q (known: round-robin least-queued least-work)", args[0])
		}
	case "policy":
		return sc.parsePolicy(args)
	case "scaler":
		return sc.parseScaler(args)
	case "models":
		if len(args) == 0 {
			return fmt.Errorf("usage: models <name> [<name>...]")
		}
		sc.Models = append([]string(nil), args...)
	case "seed":
		if len(args) != 1 {
			return fmt.Errorf("usage: seed <n>")
		}
		v, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", args[0], err)
		}
		sc.Seed = v
	case "warmup":
		if len(args) != 1 {
			return fmt.Errorf("usage: warmup <fraction>")
		}
		v, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return fmt.Errorf("bad warmup fraction %q: %w", args[0], err)
		}
		sc.Warmup = v
	case "segment":
		if len(args) != 1 {
			return fmt.Errorf("usage: segment <duration>")
		}
		d, err := parseDuration(args[0])
		if err != nil {
			return err
		}
		sc.Segment = d
	case "load":
		if len(args) == 0 {
			return fmt.Errorf("usage: load <f> [<f>...]")
		}
		loads := make([]float64, len(args))
		for i, a := range args {
			v, err := strconv.ParseFloat(a, 64)
			if err != nil {
				return fmt.Errorf("bad load %q: %w", a, err)
			}
			loads[i] = v
		}
		sc.Load = loads
	case "at":
		return sc.parseEvent(args)
	case "assert":
		return sc.parseAssert(args)
	default:
		return fmt.Errorf("unknown directive %q", key)
	}
	return nil
}

// parseFleet reads "fleet initial=N [min=N max=N] [tiers=<template>]".
func (sc *Scenario) parseFleet(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: fleet initial=N [min=N max=N] [tiers=70%%:fast,30%%:slow]")
	}
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("fleet wants key=value pairs, got %q", a)
		}
		if k == "tiers" {
			sc.Fleet.Tiers = v
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("bad fleet %s %q: %w", k, v, err)
		}
		switch k {
		case "initial":
			sc.Fleet.Initial = n
		case "min":
			sc.Fleet.Min = n
		case "max":
			sc.Fleet.Max = n
		default:
			return fmt.Errorf("unknown fleet key %q (known: initial min max tiers)", k)
		}
	}
	return nil
}

// parsePolicy reads "policy <label> [preemptive] [mechanism=<label>]".
func (sc *Scenario) parsePolicy(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: policy <label> [preemptive] [mechanism=<label>]")
	}
	sc.Scheduler = sched.Spec{Policy: args[0]}
	for _, a := range args[1:] {
		if a == "preemptive" {
			sc.Scheduler.Preemptive = true
			continue
		}
		if v, ok := strings.CutPrefix(a, "mechanism="); ok {
			sc.Scheduler.Selector = v
			continue
		}
		return fmt.Errorf("unknown policy option %q (known: preemptive mechanism=<label>)", a)
	}
	return nil
}

// parseScaler reads "scaler <label> slo=<duration> [tick=<duration>]".
func (sc *Scenario) parseScaler(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: scaler <label> slo=<duration> [tick=<duration>]")
	}
	sc.Scaler = args[0]
	for _, a := range args[1:] {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("scaler wants key=value options, got %q", a)
		}
		d, err := parseDuration(v)
		if err != nil {
			return err
		}
		switch k {
		case "slo":
			sc.SLO = d
		case "tick":
			sc.Tick = d
		default:
			return fmt.Errorf("unknown scaler option %q (known: slo tick)", k)
		}
	}
	if sc.SLO == 0 {
		return fmt.Errorf("scaler %q needs slo=<duration>", sc.Scaler)
	}
	return nil
}

// parseEvent reads "at <duration> <op> npu<i> [x<factor>]".
func (sc *Scenario) parseEvent(args []string) error {
	if len(args) < 3 {
		return fmt.Errorf("usage: at <duration> fail|slowdown|restore|cordon|uncordon npu<i> [x<factor>]")
	}
	at, err := parseDuration(args[0])
	if err != nil {
		return err
	}
	var kind serving.OpKind
	switch args[1] {
	case "fail":
		kind = serving.FailNPU
	case "slowdown":
		kind = serving.SlowNPU
	case "restore":
		kind = serving.RestoreNPU
	case "cordon":
		kind = serving.CordonNPU
	case "uncordon":
		kind = serving.UncordonNPU
	default:
		return fmt.Errorf("unknown operation %q (known: fail slowdown restore cordon uncordon)", args[1])
	}
	idx, err := parseNPU(args[2])
	if err != nil {
		return err
	}
	op := serving.NodeOp{Kind: kind, NPU: idx}
	rest := args[3:]
	if kind == serving.SlowNPU {
		if len(rest) != 1 {
			return fmt.Errorf("slowdown wants a factor: at %s slowdown npu%d x<factor>", args[0], idx)
		}
		f, err := strconv.ParseFloat(strings.TrimPrefix(rest[0], "x"), 64)
		if err != nil {
			return fmt.Errorf("bad slowdown factor %q: %w", rest[0], err)
		}
		op.Factor = f
	} else if len(rest) != 0 {
		return fmt.Errorf("unexpected arguments %v after %s", rest, args[1])
	}
	sc.Events = append(sc.Events, Event{At: at, Op: op})
	return nil
}

// parseAssert reads the four assertion forms.
func (sc *Scenario) parseAssert(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: assert slo_violation_frac|tier|fleet|recovered_by ...")
	}
	switch args[0] {
	case "tier":
		if len(args) != 5 || args[2] != "slo_violation_frac" || args[3] != "<" {
			return fmt.Errorf("usage: assert tier <name> slo_violation_frac < <f>")
		}
		v, err := strconv.ParseFloat(args[4], 64)
		if err != nil {
			return fmt.Errorf("bad violation bound %q: %w", args[4], err)
		}
		sc.Asserts = append(sc.Asserts, Assertion{Kind: AssertTierSLO, Tier: args[1], Max: v})
	case "slo_violation_frac":
		if len(args) != 3 || args[1] != "<" {
			return fmt.Errorf("usage: assert slo_violation_frac < <f>")
		}
		v, err := strconv.ParseFloat(args[2], 64)
		if err != nil {
			return fmt.Errorf("bad violation bound %q: %w", args[2], err)
		}
		sc.Asserts = append(sc.Asserts, Assertion{Kind: AssertSLO, Max: v})
	case "fleet":
		if len(args) != 7 || args[1] != "between" || args[4] != "during" {
			return fmt.Errorf("usage: assert fleet between <lo> <hi> during <from> <to>")
		}
		lo, err := strconv.Atoi(args[2])
		if err != nil {
			return fmt.Errorf("bad fleet bound %q: %w", args[2], err)
		}
		hi, err := strconv.Atoi(args[3])
		if err != nil {
			return fmt.Errorf("bad fleet bound %q: %w", args[3], err)
		}
		from, err := parseDuration(args[5])
		if err != nil {
			return err
		}
		to, err := parseDuration(args[6])
		if err != nil {
			return err
		}
		sc.Asserts = append(sc.Asserts, Assertion{
			Kind: AssertFleetBetween, Lo: lo, Hi: hi, From: from, To: to,
		})
	case "recovered_by":
		if len(args) != 2 {
			return fmt.Errorf("usage: assert recovered_by <duration>")
		}
		by, err := parseDuration(args[1])
		if err != nil {
			return err
		}
		sc.Asserts = append(sc.Asserts, Assertion{Kind: AssertRecoveredBy, By: by})
	default:
		return fmt.Errorf("unknown assertion %q (known: slo_violation_frac tier fleet recovered_by)", args[0])
	}
	return nil
}

// parseDuration wraps time.ParseDuration with the scenario error shape.
func parseDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q (want Go syntax, e.g. 40ms)", s)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return d, nil
}

// parseNPU accepts "npu2" or bare "2".
func parseNPU(s string) (int, error) {
	idx, err := strconv.Atoi(strings.TrimPrefix(s, "npu"))
	if err != nil || idx < 0 {
		return 0, fmt.Errorf("bad NPU target %q (want npu<i> or a non-negative index)", s)
	}
	return idx, nil
}
