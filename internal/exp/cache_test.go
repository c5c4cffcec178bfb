package exp

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dnn"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestCacheHitsSkipResimulation proves the cache's core property: across
// repeated and overlapping RunConfigs calls, each (configuration, run)
// pair is simulated exactly once — Suite.Simulations counts simulateOne
// executions, which cache hits bypass.
func TestCacheHitsSkipResimulation(t *testing.T) {
	s := fastSuite(t)
	spec := workload.Spec{Tasks: 4}
	const runs = 3
	cfgs := []SchedulerConfig{NP("FCFS"), DynamicCkpt("PREMA")}

	first, err := s.RunConfigs(cfgs, spec, runs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Simulations(), int64(len(cfgs)*runs); got != want {
		t.Fatalf("cold pass simulated %d runs, want %d", got, want)
	}

	// An overlapping call: NP-FCFS is shared, Static-PREMA is new. Only
	// the new configuration's runs may simulate.
	if _, err := s.RunConfigs([]SchedulerConfig{NP("FCFS"), StaticCkpt("PREMA")}, spec, runs); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Simulations(), int64(3*runs); got != want {
		t.Errorf("overlapping pass brought simulations to %d, want %d (only the new config)", got, want)
	}

	// An identical repeat simulates nothing and reproduces bit-identical
	// results (same outcomes, hence same fingerprints).
	second, err := s.RunConfigs(cfgs, spec, runs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Simulations(), int64(3*runs); got != want {
		t.Errorf("repeated pass simulated %d extra runs, want 0", got-want)
	}
	for i := range first {
		if fingerprint(first[i]) != fingerprint(second[i]) {
			t.Errorf("%s: cached result diverges from the original", cfgs[i].Label)
		}
	}

	stats := s.Cache.Stats()
	if stats.Entries != int64(3*runs) {
		t.Errorf("cache holds %d entries, want %d", stats.Entries, 3*runs)
	}
	if want := int64(3 * runs); stats.Hits != want {
		t.Errorf("cache counted %d hits, want %d (runs shared by the 2nd and 3rd calls)", stats.Hits, want)
	}
	if stats.Misses != stats.Entries {
		t.Errorf("cache counted %d misses for %d entries", stats.Misses, stats.Entries)
	}
}

// TestCacheIgnoresLabels verifies the key excludes the display label: two
// experiments naming the same (policy, selector, preemptive) tuple
// differently — e.g. killgranularity's "P-PREMA/static-checkpoint" vs
// fig12's "Static-PREMA" — share entries.
func TestCacheIgnoresLabels(t *testing.T) {
	s := fastSuite(t)
	spec := workload.Spec{Tasks: 4}
	const runs = 2
	a := StaticCkpt("PREMA") // label "Static-PREMA"
	b := SchedulerConfig{Label: "P-PREMA/static-checkpoint", Policy: "PREMA",
		Preemptive: true, Selector: "static-checkpoint"}
	if _, err := s.RunConfigs([]SchedulerConfig{a}, spec, runs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunConfigs([]SchedulerConfig{b}, spec, runs); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Simulations(), int64(runs); got != want {
		t.Errorf("relabelled configuration re-simulated: %d runs, want %d", got, want)
	}
}

// TestCacheSpecCanonicalization verifies that a spec spelled with
// explicit defaults shares entries with the shorthand spec, and that
// genuinely different specs or scheduler configs do not.
func TestCacheSpecCanonicalization(t *testing.T) {
	s := fastSuite(t)
	const runs = 2
	cfg := []SchedulerConfig{NP("FCFS")}
	if _, err := s.RunConfigs(cfg, workload.Spec{Tasks: 4}, runs); err != nil {
		t.Fatal(err)
	}
	explicit := workload.Spec{
		Tasks:         4,
		Models:        dnn.Suite(),
		BatchSizes:    append([]int(nil), dnn.BatchSizes...),
		ArrivalWindow: 20 * time.Millisecond,
	}
	if _, err := s.RunConfigs(cfg, explicit, runs); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Simulations(), int64(runs); got != want {
		t.Errorf("explicitly-defaulted spec re-simulated: %d runs, want %d", got, want)
	}
	// A different batch pool is a different workload.
	if _, err := s.RunConfigs(cfg, workload.Spec{Tasks: 4, BatchSizes: []int{1}}, runs); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Simulations(), int64(2*runs); got != want {
		t.Errorf("distinct spec hit the cache: %d simulations, want %d", got, want)
	}
	// A perturbed scheduler config is a different simulation.
	scfg := s.Sched
	scfg.Quantum = time.Millisecond
	if _, err := s.RunConfigsSched(cfg, scfg, workload.Spec{Tasks: 4}, runs); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Simulations(), int64(3*runs); got != want {
		t.Errorf("distinct sched config hit the cache: %d simulations, want %d", got, want)
	}
}

// opaqueEstimator is a custom estimator the cache cannot fingerprint.
type opaqueEstimator struct{}

func (opaqueEstimator) Estimate(m *dnn.Model, batch, inLen int) (int64, error) {
	return 1 << 20, nil
}

// TestCacheEstimatorIdentity verifies the estimator rules: nil/analytic
// and Oracle estimators cache (as distinct keys); an opaque custom
// estimator bypasses the cache entirely.
func TestCacheEstimatorIdentity(t *testing.T) {
	s := fastSuite(t)
	const runs = 2
	cfg := []SchedulerConfig{NP("FCFS")}
	analytic := workload.Spec{Tasks: 4}
	oracle := workload.Spec{Tasks: 4, Estimator: workload.Oracle()}
	for _, spec := range []workload.Spec{analytic, oracle} {
		for pass := 0; pass < 2; pass++ {
			if _, err := s.RunConfigs(cfg, spec, runs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := s.Simulations(), int64(2*runs); got != want {
		t.Errorf("analytic+oracle specs simulated %d runs, want %d (each cached once, distinct keys)", got, want)
	}

	opaque := workload.Spec{Tasks: 4, Estimator: opaqueEstimator{}}
	entriesBefore := s.Cache.Stats().Entries
	for pass := 0; pass < 2; pass++ {
		if _, err := s.RunConfigs(cfg, opaque, runs); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Simulations(), int64(4*runs); got != want {
		t.Errorf("opaque-estimator spec should bypass the cache: %d simulations, want %d", got, want)
	}
	if got := s.Cache.Stats().Entries; got != entriesBefore {
		t.Errorf("opaque-estimator runs were stored: %d entries, want %d", got, entriesBefore)
	}
}

// TestCacheByteIdenticalFullSuite is the tentpole's determinism proof at
// full scope: every registered experiment, run twice through one
// cache-enabled Suite, renders byte-identical tables to a cache-disabled
// Suite — the cache only removes redundant simulation, never changes a
// cell.
func TestCacheByteIdenticalFullSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	render := func(t *testing.T, s *Suite) string {
		t.Helper()
		var b strings.Builder
		for _, e := range All() {
			tables, err := e.Run(s)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			for _, tbl := range tables {
				b.WriteString(tbl.String())
				b.WriteString(tbl.CSV())
			}
		}
		return b.String()
	}
	newSuite := func(cached bool) *Suite {
		s, err := NewSuite()
		if err != nil {
			t.Fatal(err)
		}
		s.Runs = 2
		if !cached {
			s.Cache = nil
		}
		return s
	}

	cold := newSuite(false)
	want := render(t, cold)

	cached := newSuite(true)
	if got := render(t, cached); got != want {
		t.Error("cache-enabled sweep diverges from cache-disabled sweep")
	}
	stats := cached.Cache.Stats()
	if stats.Hits == 0 {
		t.Error("full sweep produced no cache hits; the overlapping baselines should share runs")
	}
	// Second sweep over the same Suite: engine-routed experiments are
	// answered entirely from the cache and the output must not move.
	simsAfterFirst := cached.Simulations()
	if got := render(t, cached); got != want {
		t.Error("second cached sweep diverges from cache-disabled sweep")
	}
	if got := cached.Simulations(); got != simsAfterFirst {
		t.Errorf("second sweep re-simulated %d engine runs; all should be cache hits", got-simsAfterFirst)
	}
	if cold.Simulations() <= cached.Simulations() {
		t.Errorf("cache saved nothing: cold %d vs cached %d simulations over two sweeps",
			cold.Simulations(), cached.Simulations())
	}
}

// sanity-check the fingerprint helpers directly.
func TestFingerprintHelpers(t *testing.T) {
	a := schedFingerprint(sched.DefaultConfig())
	b := schedFingerprint(sched.DefaultConfig())
	if a != b {
		t.Errorf("sched fingerprint unstable: %q vs %q", a, b)
	}
	perturbed := sched.DefaultConfig()
	perturbed.TokenThresholdLevels = []float64{1, 2, 4}
	if schedFingerprint(perturbed) == a {
		t.Error("sched fingerprint ignores threshold levels")
	}
	fp1, ok1 := specFingerprint(workload.Spec{Tasks: 8})
	fp2, ok2 := specFingerprint(workload.Spec{Tasks: 8, ArrivalWindow: 20 * time.Millisecond})
	if !ok1 || !ok2 || fp1 != fp2 {
		t.Errorf("default window should canonicalize: %q vs %q", fp1, fp2)
	}
	if _, ok := specFingerprint(workload.Spec{Tasks: 8, Estimator: opaqueEstimator{}}); ok {
		t.Error("opaque estimator must not fingerprint")
	}
	if fpO, ok := specFingerprint(workload.Spec{Tasks: 8, Estimator: workload.Oracle()}); !ok || fpO == fp1 {
		t.Error("oracle estimator must fingerprint distinctly from analytic")
	}
}

// TestFullSweepLiveHeapCeiling bounds what a Suite keeps live after a
// full sweep: every registered experiment at Runs=2 through one
// cache-enabled Suite, then a GC with the Suite still reachable. The
// generator's program cache and the run cache never evict, so this is
// the heap a long sweep settles at. Measured at 4.4 MB (Go 1.24,
// linux/amd64, 2 CPUs); the ceiling leaves 1.8x headroom and sits below
// the 10 MB a sweep keeps when every cached RNN program holds a span per
// unrolled layer, so that layout fails it. Before compiled programs
// shared repeated layer blocks, every cached RNN program held each
// unrolled timestep's instructions separately, and a sweep kept
// gigabytes live.
func TestFullSweepLiveHeapCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	const ceilingMB = 8
	s, err := NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	s.Runs = 2
	for _, e := range All() {
		if _, err := e.Run(s); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(s)
	live := float64(ms.HeapAlloc) / 1e6
	t.Logf("live heap after a full sweep: %.1f MB (ceiling %d MB)", live, ceilingMB)
	if live > ceilingMB {
		t.Errorf("live heap %.1f MB after a full sweep exceeds %d MB", live, ceilingMB)
	}
}
