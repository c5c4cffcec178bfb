package main

import (
	"math"
	"regexp"
	"slices"
	"sort"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadConfig(t *testing.T) *config {
	t.Helper()
	cfg, err := readConfig("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestConfigMatchesCode keeps BENCHMARK.json and the code from
// drifting apart: the same workloads in the same order, and the same
// metrics with the same units.
func TestConfigMatchesCode(t *testing.T) {
	cfg := loadConfig(t)
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, code has %d", names, len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, names[i], w.name)
		}
	}
	type named struct{ name, unit string }
	check := func(kind string, fromConfig []named, defs []metricDef) {
		if len(fromConfig) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(fromConfig), len(defs))
		}
		for i, def := range defs {
			if fromConfig[i] != (named{def.name, def.unit}) {
				t.Errorf("%s metric %d: BENCHMARK.json %v, code %v", kind, i, fromConfig[i], def)
			}
			if !nameRE.MatchString(def.name) || !unitRE.MatchString(def.unit) {
				t.Errorf("%s metric %q has a malformed name or unit %q", kind, def.name, def.unit)
			}
		}
	}
	var e2e, layer []named
	for _, m := range cfg.EndToEnd {
		e2e = append(e2e, named{m.Name, m.Unit})
	}
	for _, m := range cfg.PerLayer {
		layer = append(layer, named{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// TestWorkloadsAtToySize runs one round of every workload at a toy size,
// untraced and traced, and checks that each run passes its own output
// checks and reports exactly the metrics BENCHMARK.json lists, every
// end-to-end one above zero.
func TestWorkloadsAtToySize(t *testing.T) {
	cfg := loadConfig(t)
	want := func(traced bool) []string {
		var names []string
		if traced {
			for _, m := range cfg.PerLayer {
				names = append(names, m.Name)
			}
		} else {
			for _, m := range cfg.EndToEnd {
				names = append(names, m.Name)
			}
		}
		sort.Strings(names)
		return names
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is malformed", w.name)
		}
		for _, traced := range []bool{false, true} {
			o := measure(w, 1, toySize, 0, traced)
			if !o.res.Correct || o.err != nil || o.res.Failed != 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d: %v", w.name, traced, o.res.Correct, o.res.Failed, o.err)
			}
			if o.res.Attempted < 1 {
				t.Errorf("%s: attempted %d", w.name, o.res.Attempted)
			}
			var got []string
			for name, m := range o.res.Metrics {
				got = append(got, name)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s = %v", w.name, name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s %s = %v, want above zero", w.name, name, m.Value)
				}
			}
			sort.Strings(got)
			if listed := want(traced); !slices.Equal(got, listed) {
				t.Errorf("%s traced=%v emitted %v, BENCHMARK.json lists %v", w.name, traced, got, listed)
			}
		}
	}
}

// TestGoldenDigests runs round 0 of every workload at full size for
// seed 1 and checks it against the recorded golden digest.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size rounds")
	}
	for _, w := range workloads {
		o := measure(w, 1, fullSize, 0, false)
		if o.err != nil || o.status != "ok" {
			t.Errorf("%s: digest %s %s: %v", w.name, o.digest, o.status, o.err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([3, 1], n=4).
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * by
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		bound  float64
		want   string
	}{
		{"faster", shift(0.8), 0.1, "improved"},
		{"same", parent, 0.1, "unchanged"},
		{"slightly slower", shift(1.05), 0.1, "unchanged"},
		{"much slower", shift(1.3), 0.1, "worse"},
		{"noisy", []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}, 0.1, "unresolved"},
		{"per-layer slower", shift(1.3), 0, "worse"},
	} {
		if got := verdict(parent, c.change, false, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := verdict(parent, shift(1.3), true, 0.1); got != "improved" {
		t.Errorf("higher-is-better gain: verdict %q", got)
	}
	// Three pairs cannot carry a claim either way.
	if got := verdict(parent[:3], shift(0.8)[:3], false, 0.1); got != "unchanged" {
		t.Errorf("gain over three pairs: verdict %q, want unchanged", got)
	}
	if got := verdict(parent[:3], shift(1.3)[:3], false, 0); got != "unresolved" {
		t.Errorf("per-layer loss over three pairs: verdict %q, want unresolved", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 1, Start: 20, End: 30},
		{ID: 3, Parent: 0, Start: 50, End: 90},
	}}
	want := []int64{30, 20, 10, 40}
	for i, got := range tr.selfTimes() {
		if got != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got, want[i])
		}
	}
}
