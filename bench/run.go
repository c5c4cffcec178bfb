package main

// run.go measures one workload in this process for a fixed time. A run
// is a sequence of rounds. Round k builds fresh state (the timed
// set-up), runs the workload's operations on input seed*1000+k, checks
// their output, and measures the live heap the round leaves before the
// next round starts from an empty one. Every round gets its own input,
// so a run's medians average over many inputs of its seed and stay put
// when only the seed changes.

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports and perLayer what a traced
// run reports, in BENCHMARK.json order. A count a workload never makes
// (the experiment cache outside paper-sweep, say) reads 0. Operation
// times and the peak resident set are per-layer metrics: on a shared
// host they spread by more than the 10% an end-to-end bound may allow
// (see README.md).
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"alloc_mb_per_op", "MB"},
		{"retained_heap_mb", "MB"},
	}
	perLayer = []metricDef{
		{"op.p50_ms", "ms"},
		{"op.p99_ms", "ms"},
		{"op.cpu_ms", "ms"},
		{"op.count", "count"},
		{"process.peak_rss_mb", "MB"},
		{"dnn.byname_ns", "ns"},
		{"dnn.byname_calls", "count"},
		{"compiler.compile_ms", "ms"},
		{"compiler.programs", "count"},
		{"compiler.program_mb", "MB"},
		{"cluster.decide_ns", "ns"},
		{"cluster.decisions", "count"},
		{"sim.run_ms", "ms"},
		{"sim.tasks", "count"},
		{"serving.submit_ns", "ns"},
		{"serving.stats_ms", "ms"},
		{"serving.stats_calls", "count"},
		{"telemetry.encode_ms", "ms"},
		{"telemetry.events", "count"},
		{"telemetry.ticks", "count"},
		{"exp.simulations", "count"},
		{"exp.cache_hits", "count"},
		{"exp.cache_misses", "count"},
		{"exp.cache_hit_ratio", "ratio"},
		{"scenario.asserts_passed", "count"},
		{"bench.trace_overhead_pct", "%"},
		{"bench.span_coverage_pct", "%"},
	}
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a finished run: its result, round 0's output digest and
// how the digest compared with the golden one ("ok", "unchecked" for a
// seed without a golden digest, or "mismatch").
type outcome struct {
	res    result
	digest string
	status string
	tr     *tracer // the traced rounds' and probes' spans; nil untraced
	err    error   // the first failure
}

//go:embed golden/*.sha256
var golden embed.FS

// runner runs rounds and collects their samples. An untraced and a
// traced runner never share samples, so tracing cannot leak into the
// end-to-end metrics.
type runner struct {
	seed uint64
	sz   size
	tr   *tracer // nil for untraced rounds

	attempted, failed int
	setups            []float64     // s
	ops               []float64     // ms
	opCPU             time.Duration // process CPU time spent in ops
	opAlloc           uint64        // heap bytes allocated in ops
	retained          []float64     // MB
	wall              time.Duration // rounds' wall time, set-up through checks
	digests           []string      // per round
	counts            map[string]float64
	requests          int // requests round 0 offered, for the probes' check
}

func newRunner(seed uint64, sz size, tr *tracer) *runner {
	return &runner{seed: seed, sz: sz, tr: tr, counts: map[string]float64{}}
}

// input is the seed of input i: the same run seed always yields the
// same sequence of inputs.
func (r *runner) input(i int) uint64 { return r.seed*1000 + uint64(i) }

func (r *runner) begin(layer, name string) {
	if r.tr != nil {
		r.tr.begin(layer, name)
	}
}

func (r *runner) end() {
	if r.tr != nil {
		r.tr.end()
	}
}

// call makes one call into a layer's public functions: it counts
// the call, records a span around it when tracing, and counts a
// returned error as a failure.
func (r *runner) call(layer, name string, fn func() error) error {
	r.attempted++
	r.begin(layer, name)
	err := fn()
	r.end()
	if err != nil {
		r.failed++
		return fmt.Errorf("%s.%s: %w", layer, name, err)
	}
	return nil
}

// timed is call, answering how long the call took.
func (r *runner) timed(layer, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := r.call(layer, name, fn)
	return time.Since(start), err
}

// setupReps is how many times each round builds its state. A set-up
// takes about half a millisecond, and on a shared host contention that
// lasts from milliseconds to seconds slows it by up to 70%. setup_s is
// the fastest of a run's builds, so it needs many of them.
const setupReps = 20

// setup builds the state a round's operations run on, setupReps times
// over, timing each; fn keeps the last state it builds. A collection
// before each build keeps the collector out of the timed build and lets
// the build reuse memory the last one touched.
func (r *runner) setup(layer, name string, fn func() error) error {
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		d, err := r.timed(layer, name, fn)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, d.Seconds())
	}
	return nil
}

// op times one user-visible operation — a sweep, a poll, a scenario —
// in wall and process CPU time.
func (r *runner) op(fn func() error) error {
	one := 1
	return r.opEach(&one, fn)
}

// opEach times fn as *n operations, *n being set by fn, and records each
// an equal share of fn's time: a stream's time shared over its requests
// is the host time per request, whatever the stream's length. It also
// counts the heap bytes fn allocates, outside the timed interval.
func (r *runner) opEach(n *int, fn func() error) error {
	alloc := heapAllocs()
	cpu := cpuTime()
	start := time.Now()
	r.begin("bench", "op")
	err := fn()
	r.end()
	share := ms(time.Since(start)) / float64(*n)
	r.opCPU += cpuTime() - cpu
	r.opAlloc += heapAllocs() - alloc
	for i := 0; i < *n; i++ {
		r.ops = append(r.ops, share)
	}
	return err
}

// check counts one check of the program's output; a false ok is a
// failure.
func (r *runner) check(ok bool, format string, args ...any) error {
	r.attempted++
	if ok {
		return nil
	}
	r.failed++
	return fmt.Errorf(format, args...)
}

// count records one of round 0's deterministic per-layer counts.
func (r *runner) count(k int, name string, v float64) {
	if k == 0 {
		r.counts[name] += v
	}
}

// offered records how many requests round k offered the system, once
// round k's outputs confirm it; the probes regenerate round 0's requests
// and check that they number the same.
func (r *runner) offered(k, n int) {
	if k == 0 {
		r.requests = n
	}
}

// round runs round k of w, then measures the live heap its state holds
// and collects the garbage, so the next round starts from an empty heap.
func (r *runner) round(w *benchWorkload, k int) error {
	if r.tr != nil {
		r.tr.run = k
	}
	h := sha256.New()
	start := time.Now()
	r.begin("bench", "round")
	keep, err := w.round(r, k, h)
	r.end()
	r.wall += time.Since(start)
	if err != nil {
		return fmt.Errorf("%s round %d: %w", w.name, k, err)
	}
	r.digests = append(r.digests, hex.EncodeToString(h.Sum(nil)))
	r.retained = append(r.retained, liveMB(keep))
	runtime.GC()
	return nil
}

// measure runs w for d and returns the run's outcome. A traced run
// follows each untraced round with a traced replay of the same input,
// which must print the same output, then probes every layer on round
// 0's request stream.
func measure(w *benchWorkload, seed uint64, sz size, d time.Duration, traced bool) outcome {
	if !w.parallel {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	plain := newRunner(seed, sz, nil)
	var tr *runner
	if traced {
		tr = newRunner(seed, sz, newTracer())
	}
	var err error
	deadline := time.Now().Add(d)
	for k := 0; err == nil; k++ {
		if err = plain.round(w, k); err != nil {
			break
		}
		if tr != nil {
			if err = tr.round(w, k); err == nil {
				err = plain.check(tr.digests[k] == plain.digests[k],
					"round %d: the traced replay printed different output", k)
			}
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	o := outcome{status: "unchecked"}
	if len(plain.digests) > 0 {
		o.digest = plain.digests[0]
	}
	if err == nil && sz.golden {
		err = plain.checkGolden(w.name, o.digest, &o.status)
	}
	var m map[string]float64
	defs := endToEnd
	if err == nil {
		if tr == nil {
			m = plain.endToEndMetrics()
		} else {
			o.tr, defs = tr.tr, perLayer
			m, err = plain.perLayerMetrics(w, tr)
		}
	}

	o.res = result{Metrics: map[string]metric{}}
	for _, r := range []*runner{plain, tr} {
		if r != nil {
			o.res.Attempted += r.attempted
			o.res.Failed += r.failed
		}
	}
	if err == nil {
		for _, def := range defs {
			o.res.Metrics[def.name] = metric{Value: m[def.name], Unit: def.unit}
		}
	}
	o.err = err
	o.res.Correct = err == nil && o.res.Failed == 0
	return o
}

// endToEndMetrics derives the end-to-end metrics from an untraced run.
// setup_s is the fastest set-up: contention only ever adds time, so the
// fastest moves far less with the host's load than the median does
// (README.md has the numbers).
func (r *runner) endToEndMetrics() map[string]float64 {
	return map[string]float64{
		"setup_s":          stats.Min(r.setups),
		"alloc_mb_per_op":  float64(r.opAlloc) / 1e6 / float64(len(r.ops)),
		"retained_heap_mb": stats.Percentile(r.retained, 50),
	}
}

// perLayerMetrics probes every layer with the traced runner tr and adds
// the untraced rounds' counts and operation times, and what tracing cost
// and covered.
func (r *runner) perLayerMetrics(w *benchWorkload, tr *runner) (map[string]float64, error) {
	m := map[string]float64{}
	tr.tr.run = -1 // the probes belong to no round
	if err := tr.probe(w, m); err != nil {
		return nil, err
	}
	for name, v := range r.counts {
		m[name] = v
	}
	m["op.p50_ms"] = stats.Percentile(r.ops, 50)
	m["op.p99_ms"] = stats.Percentile(r.ops, 99)
	m["op.cpu_ms"] = ms(r.opCPU) / float64(len(r.ops))
	m["op.count"] = float64(len(r.ops))
	m["process.peak_rss_mb"] = peakRSSMB()
	m["bench.trace_overhead_pct"] = 100 * (tr.wall.Seconds()/r.wall.Seconds() - 1)
	dur, self := tr.tr.total("bench", "round")
	m["bench.span_coverage_pct"] = 100 * (1 - float64(self)/float64(dur))
	return m, nil
}

// checkGolden compares round 0's digest with the workload's golden
// digest for this seed, when one is recorded.
func (r *runner) checkGolden(name, digest string, status *string) error {
	want, err := golden.ReadFile(fmt.Sprintf("golden/%s-%d.sha256", name, r.seed))
	if err != nil {
		return nil // no golden digest for this seed: unchecked
	}
	*status = "ok"
	if err := r.check(strings.TrimSpace(string(want)) == digest,
		"round 0 output digest %s, golden %s", digest, strings.TrimSpace(string(want))); err != nil {
		*status = "mismatch"
		return err
	}
	return nil
}

// liveMB collects garbage and answers the live heap in MB while keep is
// still reachable.
func liveMB(keep any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / 1e6
}

// heapAllocSample reads the heap bytes allocated since the process
// started, without stopping the world as runtime.ReadMemStats does.
var heapAllocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs answers the heap bytes allocated since the process started.
func heapAllocs() uint64 {
	metrics.Read(heapAllocSample)
	return heapAllocSample[0].Value.Uint64()
}

// cpuTime answers the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB answers the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// print writes the run's metrics as "<workload> <metric> <value> <unit>"
// lines, the digest line, and, for a traced run, each layer's self time.
func (o *outcome) print(w io.Writer, name string, defs []metricDef) {
	for _, def := range defs {
		if m, ok := o.res.Metrics[def.name]; ok {
			fmt.Fprintf(w, "%s %s %v %s\n", name, def.name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "%s digest %s %s\n", name, o.digest, o.status)
	if o.tr != nil {
		o.tr.report(w)
	}
}
