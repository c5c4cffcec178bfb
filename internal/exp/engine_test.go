package exp

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dnn"
	"repro/internal/workload"
)

// fingerprint renders every observable field of a MultiResult with exact
// float bit patterns, so two results compare equal only when they are
// bit-identical: aggregate metrics, wasted cycles and the pooled NTTs in
// order.
func fingerprint(m *MultiResult) string {
	var b strings.Builder
	bits := func(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
	fmt.Fprintf(&b, "cfg=%s agg={runs=%d antt=%s stp=%s fair=%s} wasted=%d\n",
		m.Config.Label, m.Agg.Runs, bits(m.Agg.ANTT), bits(m.Agg.STP), bits(m.Agg.Fairness),
		m.WastedCycles)
	for i, ntt := range m.NTTs {
		fmt.Fprintf(&b, "ntt[%d]=%s\n", i, bits(ntt))
	}
	return b.String()
}

// TestEngineParallelMatchesSequential is the engine's determinism
// contract (see the package comment): fanning (configuration x run)
// pairs over the worker pool must produce MultiResults bit-identical to
// a sequential Workers=1 execution — same aggregate floats, same pooled
// task order.
func TestEngineParallelMatchesSequential(t *testing.T) {
	spec := workload.Spec{Tasks: 8}
	const runs = 6
	cfgs := []SchedulerConfig{NP("FCFS"), DynamicCkpt("PREMA")}

	newSuite := func(workers int) *Suite {
		s, err := NewSuite()
		if err != nil {
			t.Fatal(err)
		}
		s.Workers = workers
		return s
	}

	seq := newSuite(1)
	seqResults, err := seq.RunConfigs(cfgs, spec, runs)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 2, 7} {
		par := newSuite(workers)
		parResults, err := par.RunConfigs(cfgs, spec, runs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range cfgs {
			want, got := fingerprint(seqResults[i]), fingerprint(parResults[i])
			if want != got {
				t.Errorf("workers=%d %s: parallel result diverges from sequential\n--- sequential\n%s--- parallel\n%s",
					workers, cfgs[i].Label, want, got)
			}
		}
	}

	// The cache extends the contract: a cache-disabled execution and a
	// fully cached re-execution must both be bit-identical to the
	// baseline (the suites above run with the default-enabled cache).
	nocache := newSuite(0)
	nocache.Cache = nil
	nocacheResults, err := nocache.RunConfigs(cfgs, spec, runs)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := seq.RunConfigs(cfgs, spec, runs) // answered from seq's cache
	if err != nil {
		t.Fatal(err)
	}
	if stats := seq.Cache.Stats(); stats.Hits != int64(len(cfgs)*runs) {
		t.Errorf("repeat execution hit the cache %d times, want %d", stats.Hits, len(cfgs)*runs)
	}
	for i := range cfgs {
		want := fingerprint(seqResults[i])
		if got := fingerprint(nocacheResults[i]); got != want {
			t.Errorf("%s: cache-disabled result diverges from cached baseline", cfgs[i].Label)
		}
		if got := fingerprint(hot[i]); got != want {
			t.Errorf("%s: cache-hit result diverges from its own first execution", cfgs[i].Label)
		}
	}
}

// TestEngineFirstError verifies the first-error policy: an invalid
// configuration surfaces as an error, not a panic or partial result.
func TestEngineFirstError(t *testing.T) {
	s := fastSuite(t)
	if _, err := s.RunConfigs([]SchedulerConfig{NP("nope")},
		workload.Spec{Tasks: 2}, 2); err == nil {
		t.Fatal("unknown policy should error")
	}
	if _, err := s.RunConfigs([]SchedulerConfig{preemptive("bad", "FCFS", "nope")},
		workload.Spec{Tasks: 2}, 2); err == nil {
		t.Fatal("unknown selector should error")
	}
}

// countingEstimator is an opaque estimator, so its runs bypass the run
// cache, that counts its calls from any number of workers. Its estimate
// is a function of its arguments, as the Estimator contract requires.
type countingEstimator struct{ calls atomic.Int64 }

func (c *countingEstimator) Estimate(m *dnn.Model, batch, inLen int) (int64, error) {
	c.calls.Add(1)
	return int64(batch)<<20 + int64(inLen)<<10 + int64(len(m.Name)), nil
}

// TestEngineDrawsEachRunOnce pins the pairing to one draw per run: every
// configuration of a RunConfigs call reads run r's workload, so 3
// configurations x 4 runs of 8 tasks estimate 32 tasks, not 96, however
// many workers share the call.
func TestEngineDrawsEachRunOnce(t *testing.T) {
	cfgs := []SchedulerConfig{NP("FCFS"), StaticCkpt("SJF"), DynamicCkpt("PREMA")}
	const runs, tasks = 4, 8
	for _, workers := range []int{1, 2} {
		s := fastSuite(t)
		s.Workers = workers
		est := &countingEstimator{}
		if _, err := s.RunConfigs(cfgs, workload.Spec{Tasks: tasks, Estimator: est}, runs); err != nil {
			t.Fatal(err)
		}
		if got, want := est.calls.Load(), int64(runs*tasks); got != want {
			t.Errorf("workers=%d: %d estimates, want %d (one draw per run)", workers, got, want)
		}
		if got := s.Draws(); got != runs {
			t.Errorf("workers=%d: %d draws, want %d", workers, got, runs)
		}
		if got, want := s.Simulations(), int64(len(cfgs)*runs); got != want {
			t.Errorf("workers=%d: %d simulations, want %d", workers, got, want)
		}
	}
}

// TestEngineCacheHitsDrawNothing: a run is drawn only on a cache miss,
// so a repeated call the cache answers in full draws no workload, and a
// call that adds one configuration draws each run once more.
func TestEngineCacheHitsDrawNothing(t *testing.T) {
	s := fastSuite(t)
	cfgs := []SchedulerConfig{NP("FCFS"), DynamicCkpt("PREMA")}
	spec := workload.Spec{Tasks: 8}
	const runs = 3
	steps := []struct {
		cfgs  []SchedulerConfig
		draws int64
	}{
		{cfgs, runs},
		{cfgs, runs},
		{append(cfgs, StaticCkpt("SJF")), 2 * runs},
	}
	for i, st := range steps {
		if _, err := s.RunConfigs(st.cfgs, spec, runs); err != nil {
			t.Fatal(err)
		}
		if got := s.Draws(); got != st.draws {
			t.Errorf("call %d: %d draws in total, want %d", i, got, st.draws)
		}
	}
}
