package exp

// cache.go is the cross-experiment simulation-result cache. The figure
// harnesses overlap heavily: a full premabench run re-simulates the
// identical NP-FCFS @ {Tasks:8, seed} baseline for fig11, fig12, fig15,
// oracle, killgranularity, threshold and the sensitivity default case,
// and every Static-*/Dynamic-* configuration is duplicated between fig12
// and fig15 — each multiplied by the paper's 25-runs-per-configuration
// protocol. The cache keys each engine run by everything that determines
// its outcome and lets overlapping sweeps share results.
//
// A run's metrics are a pure function of (policy, selector, preemptive,
// scheduler configuration, workload spec, seed, run index) for a fixed
// Suite: run r's workload is drawn from workload.RNGFor(seed, r) once per
// RunConfigs call, on the call's first miss for r, and read by every
// configuration of the call; the simulator is deterministic. A call the
// cache answers in full draws nothing. The Suite's generator (NPU config and
// profile seed) is deliberately NOT part of the key — the cache lives on
// the Suite and never outlives it.
//
// An entry is the run's metrics.Run and nothing else: no scheduler entry
// outlives its run. Cached metrics are immutable by contract: consumers
// only aggregate them (averaging, NTT pooling, SLA statistics), so the
// same metrics.Run — including its NTT slice — may be handed to any
// number of experiments.
//
// Specs are canonicalized before fingerprinting (empty model/batch pools
// and a zero arrival window resolve to the same defaults workload.Generate
// applies), so Spec{Tasks: 8} and its fully spelled-out equivalent share
// entries. Only the identity of the nil/analytic and Oracle estimators
// can be fingerprinted; a custom Estimator implementation is opaque and
// bypasses the cache entirely.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dnn"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

// runKey identifies one cacheable simulation run. Its fields are
// exported for the disk cache's gob encoding.
type runKey struct {
	Policy     string
	Selector   string
	Preemptive bool
	// SchedFP is the canonical sched.Config fingerprint (quantum and
	// exact token-threshold level bits).
	SchedFP string
	// SpecFP is the canonical workload.Spec fingerprint.
	SpecFP string
	Seed   uint64
	Run    int
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts lookups answered from the cache.
	Hits int64
	// Misses counts cacheable lookups that had to simulate.
	Misses int64
	// Entries is the number of stored runs.
	Entries int64
}

// RunCache memoizes engine run metrics across experiments. It is safe
// for concurrent use by the engine's worker pool; stored metrics are
// immutable by contract (see the file comment).
type RunCache struct {
	mu      sync.Mutex
	entries map[runKey]metrics.Run
	hits    int64
	misses  int64
}

// NewRunCache builds an empty cache.
func NewRunCache() *RunCache {
	return &RunCache{entries: make(map[runKey]metrics.Run)}
}

// Stats snapshots the hit/miss counters and entry count.
func (c *RunCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: int64(len(c.entries))}
}

// lookup returns the cached metrics for a key, counting the access as a
// hit or miss.
func (c *RunCache) lookup(k runKey) (metrics.Run, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.entries[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return m, ok
}

// store records a run's metrics. A racing duplicate (two workers
// simulating the same key concurrently) keeps the first entry; both are
// identical by the engine's determinism contract.
func (c *RunCache) store(k runKey, m metrics.Run) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[k]; !dup {
		c.entries[k] = m
	}
}

// schedFingerprint canonicalizes a scheduler configuration: the quantum in
// nanoseconds and the exact bit patterns of the token-threshold levels.
func schedFingerprint(c sched.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "q=%d;levels=", int64(c.Quantum))
	for i, l := range c.TokenThresholdLevels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(l, 'x', -1, 64))
	}
	return b.String()
}

// specFingerprint canonicalizes a workload spec. The empty model pool,
// empty batch pool and zero arrival window resolve to the same defaults
// workload.Generate applies, so equivalent specs share cache entries.
// Reports false for specs that cannot be fingerprinted (an opaque custom
// estimator), which bypass the cache.
func specFingerprint(spec workload.Spec) (string, bool) {
	var est string
	switch {
	case spec.Estimator == nil:
		est = "analytic"
	case spec.Estimator == workload.Oracle():
		est = "oracle"
	default:
		// A custom estimator may opt into caching by identifying
		// itself; by the estimator contract (pure, one estimator per
		// registered name) the key pins its behaviour.
		ck, ok := spec.Estimator.(interface{ CacheKey() string })
		if !ok {
			return "", false
		}
		est = "custom:" + ck.CacheKey()
	}
	models := spec.Models
	if len(models) == 0 {
		models = dnn.Suite()
	}
	batches := spec.BatchSizes
	if len(batches) == 0 {
		batches = dnn.BatchSizes
	}
	window := spec.ArrivalWindow
	if window <= 0 {
		window = 20 * time.Millisecond
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tasks=%d;window=%d;prio=%d;est=%s;models=",
		spec.Tasks, int64(window), int(spec.FixedPriority), est)
	for i, m := range models {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(m.Name)
	}
	b.WriteString(";batches=")
	for i, bs := range batches {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", bs)
	}
	return b.String(), true
}

// cacheKey derives the cache key for one engine run. Reports false when
// the run is not cacheable: the Suite has no cache, or the spec carries an
// opaque estimator. The configuration's Label is deliberately excluded —
// two experiments labelling the same (policy, selector, preemptive) tuple
// differently still share entries.
func (s *Suite) cacheKey(cfg SchedulerConfig, scfg sched.Config, spec workload.Spec, run int) (runKey, bool) {
	if s.Cache == nil {
		return runKey{}, false
	}
	specFP, ok := specFingerprint(spec)
	if !ok {
		return runKey{}, false
	}
	return runKey{
		Policy:     cfg.Policy,
		Selector:   cfg.Selector,
		Preemptive: cfg.Preemptive,
		SchedFP:    schedFingerprint(scfg),
		SpecFP:     specFP,
		Seed:       s.Seed,
		Run:        run,
	}, true
}
