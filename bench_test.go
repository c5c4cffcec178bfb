// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates its experiment against
// the simulator and reports the headline quantities via b.ReportMetric so
// `go test -bench=. -benchmem` reproduces the paper's numbers alongside
// the harness's own cost.
//
// Micro-benchmarks for the substrates (compiler, execution cursor,
// functional systolic array, end-to-end simulation) follow at the bottom.
package prema

import (
	"flag"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dnn"
	"repro/internal/exp"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/systolic"
	"repro/internal/workload"
)

// benchCache mirrors premabench's -cache flag, but defaults off: each
// benchmark re-runs one experiment b.N times over a single suite, so a
// warm cache would answer every iteration after the first from memory
// and ns/op would stop tracking simulator cost — the regression these
// benchmarks exist to catch. Pass -cache to measure the amortized
// cached path instead. Results are bit-identical either way.
var benchCache = flag.Bool("cache", false,
	"enable the cross-experiment simulation-result cache in benchmark suites")

// benchSuite builds an experiment suite sized for benchmarking: fewer
// runs per configuration than the paper's 25 so a full -bench=. sweep
// stays in the minutes range while preserving every qualitative outcome.
func benchSuite(b *testing.B) *exp.Suite {
	b.Helper()
	s, err := exp.NewSuite()
	if err != nil {
		b.Fatal(err)
	}
	s.Runs = 8
	if !*benchCache {
		s.Cache = nil
	}
	return s
}

// TestBenchCacheFlagThreads proves the -cache flag reaches the suite.
func TestBenchCacheFlagThreads(t *testing.T) {
	s, err := exp.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	if s.Cache == nil {
		t.Error("NewSuite should default-enable the run cache")
	}
	if *benchCache {
		t.Error("benchmarks must default to cache-off so ns/op tracks simulator cost")
	}
}

// cell parses a numeric table cell such as "7.81x", "36.0", "12.3%".
func cell(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cannot parse cell %q: %v", s, err)
	}
	return v
}

// runExperiment executes one registered experiment per iteration and
// returns the last iteration's tables.
func runExperiment(b *testing.B, id string) []*exp.Table {
	b.Helper()
	s := benchSuite(b)
	var tables []*exp.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := exp.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		tables, err = e.Run(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return tables
}

// rowByLabel indexes a table's rows by their first cell.
func rowByLabel(t *exp.Table) map[string][]string {
	m := make(map[string][]string, len(t.Rows))
	for _, r := range t.Rows {
		m[r[0]] = r
	}
	return m
}

// BenchmarkFig01Colocation regenerates Figure 1: co-locating GoogLeNet
// and ResNet under NP-FCFS raises throughput at a latency cost.
func BenchmarkFig01Colocation(b *testing.B) {
	tables := runExperiment(b, "fig1")
	co := tables[0].Rows[3]
	b.ReportMetric(cell(b, co[3]), "throughput-gain-x")
	b.ReportMetric(cell(b, co[4]), "latency-cost-x")
}

// BenchmarkFig05PreemptionLatency regenerates Figure 5: preemption
// latency and preempting-task wait time per mechanism.
func BenchmarkFig05PreemptionLatency(b *testing.B) {
	tables := runExperiment(b, "fig5")
	latAvg := tables[0].Rows[len(tables[0].Rows)-1]
	waitAvg := tables[1].Rows[len(tables[1].Rows)-1]
	b.ReportMetric(cell(b, latAvg[3]), "ckpt-latency-us")
	b.ReportMetric(cell(b, waitAvg[4])/1000, "drain-wait-ms")
}

// BenchmarkFig06MechanismSTPNTT regenerates Figure 6: STP and NTT
// improvements per preemption mechanism.
func BenchmarkFig06MechanismSTPNTT(b *testing.B) {
	tables := runExperiment(b, "fig6")
	stpAvg := tables[0].Rows[len(tables[0].Rows)-1]
	nttAvg := tables[1].Rows[len(tables[1].Rows)-1]
	b.ReportMetric(cell(b, stpAvg[2]), "kill-stp-x")
	b.ReportMetric(cell(b, stpAvg[3]), "ckpt-stp-x")
	b.ReportMetric(cell(b, nttAvg[3]), "ckpt-ntt-x")
}

// BenchmarkFig07ActivationDensity regenerates Figure 7: VGG per-layer
// activation density stability across 1000 inferences.
func BenchmarkFig07ActivationDensity(b *testing.B) {
	tables := runExperiment(b, "fig7")
	var maxIQR float64
	for _, r := range tables[0].Rows {
		if v := cell(b, r[6]); v > maxIQR {
			maxIQR = v
		}
	}
	b.ReportMetric(maxIQR, "max-density-iqr")
}

// BenchmarkFig09SeqLenCharacterization regenerates Figure 9: the
// input-vs-output sequence length characterization graphs.
func BenchmarkFig09SeqLenCharacterization(b *testing.B) {
	tables := runExperiment(b, "fig9")
	b.ReportMetric(float64(len(tables)), "panels")
}

// BenchmarkFig10MACsVsTime regenerates Figure 10: per-layer MAC count vs
// execution time, exposing the low-utilization outliers.
func BenchmarkFig10MACsVsTime(b *testing.B) {
	tables := runExperiment(b, "fig10")
	outliers := 0
	for _, r := range tables[0].Rows {
		if r[6] == "YES" {
			outliers++
		}
	}
	b.ReportMetric(float64(len(tables[0].Rows)), "layers")
	b.ReportMetric(float64(outliers), "low-util-outliers")
}

// BenchmarkFig11NonPreemptive regenerates Figure 11: the six schedulers
// on a non-preemptive NPU.
func BenchmarkFig11NonPreemptive(b *testing.B) {
	tables := runExperiment(b, "fig11")
	rows := rowByLabel(tables[0])
	b.ReportMetric(cell(b, rows["NP-SJF"][4]), "sjf-antt-x")
	b.ReportMetric(cell(b, rows["NP-PREMA"][4]), "prema-antt-x")
	b.ReportMetric(cell(b, rows["NP-PREMA"][5]), "prema-fairness-x")
}

// BenchmarkFig12PreemptiveDynamic regenerates Figure 12: static
// CHECKPOINT vs Algorithm 3 dynamic selection (paper headline: 7.8x ANTT,
// 19.6x fairness, 1.4x STP for Dynamic-PREMA).
func BenchmarkFig12PreemptiveDynamic(b *testing.B) {
	tables := runExperiment(b, "fig12")
	rows := rowByLabel(tables[0])
	b.ReportMetric(cell(b, rows["Dynamic-PREMA"][4]), "prema-antt-x")
	b.ReportMetric(cell(b, rows["Dynamic-PREMA"][5]), "prema-fairness-x")
	b.ReportMetric(cell(b, rows["Dynamic-PREMA"][6]), "prema-stp-x")
}

// BenchmarkFig13SLA regenerates Figure 13: SLA violation rate vs target.
func BenchmarkFig13SLA(b *testing.B) {
	tables := runExperiment(b, "fig13")
	t := tables[0]
	// Row for SLA target 4x, NP-FCFS and Dynamic-PREMA columns.
	row := t.Rows[1]
	b.ReportMetric(cell(b, row[1]), "fcfs-viol-at4-pct")
	b.ReportMetric(cell(b, row[len(row)-1]), "prema-viol-at4-pct")
}

// BenchmarkFig14TailLatency regenerates Figure 14: 95th-percentile tail
// latency of high-priority batch-1 tasks.
func BenchmarkFig14TailLatency(b *testing.B) {
	tables := runExperiment(b, "fig14")
	avg := tables[0].Rows[len(tables[0].Rows)-1]
	b.ReportMetric(cell(b, avg[5]), "fcfs-tail-x")
	b.ReportMetric(cell(b, avg[6]), "prema-tail-x")
}

// BenchmarkFig15KillVsCheckpoint regenerates Figure 15: the CHECKPOINT
// vs KILL sensitivity study.
func BenchmarkFig15KillVsCheckpoint(b *testing.B) {
	tables := runExperiment(b, "fig15")
	rows := rowByLabel(tables[0])
	b.ReportMetric(cell(b, rows["Dynamic-PREMA"][4]), "ckpt-prema-antt-x")
	b.ReportMetric(cell(b, rows["DynamicKill-PREMA"][4]), "kill-prema-antt-x")
}

// BenchmarkPredictionAccuracy regenerates the Section VI-A result: the
// Algorithm 1 predictor's error and correlation.
func BenchmarkPredictionAccuracy(b *testing.B) {
	tables := runExperiment(b, "accuracy")
	last := tables[0].Rows[len(tables[0].Rows)-1]
	b.ReportMetric(cell(b, last[1]), "mean-error-pct")
	b.ReportMetric(cell(b, last[5]), "correlation")
}

// BenchmarkFig12OracleComparison regenerates Section VI-D: predicted
// PREMA vs an oracle fed exact execution times.
func BenchmarkFig12OracleComparison(b *testing.B) {
	tables := runExperiment(b, "oracle")
	ratio := tables[0].Rows[len(tables[0].Rows)-1]
	b.ReportMetric(cell(b, ratio[1]), "antt-vs-oracle-pct")
	b.ReportMetric(cell(b, ratio[2]), "stp-vs-oracle-pct")
}

// BenchmarkSensitivity regenerates the Section VI-E sweeps (batch sizes,
// quanta, contention, task counts).
func BenchmarkSensitivity(b *testing.B) {
	tables := runExperiment(b, "sensitivity")
	minANTT := 1e18
	for _, r := range tables[0].Rows {
		if v := cell(b, r[1]); v < minANTT {
			minANTT = v
		}
	}
	b.ReportMetric(minANTT, "min-antt-x")
}

// BenchmarkThresholdAblation regenerates the Algorithm 2 candidate
// threshold ablation.
func BenchmarkThresholdAblation(b *testing.B) {
	tables := runExperiment(b, "threshold")
	b.ReportMetric(cell(b, tables[0].Rows[0][1]), "paper-threshold-antt-x")
}

// BenchmarkPredictorAblation regenerates the analytic vs profile-based vs
// MAC-proxy predictor comparison.
func BenchmarkPredictorAblation(b *testing.B) {
	tables := runExperiment(b, "predictors")
	var analytic, proxy float64
	for _, r := range tables[0].Rows {
		analytic += cell(b, r[1])
		proxy += cell(b, r[3])
	}
	n := float64(len(tables[0].Rows))
	b.ReportMetric(analytic/n, "analytic-err-pct")
	b.ReportMetric(proxy/n, "macproxy-err-pct")
}

// BenchmarkStorageOverhead regenerates the Sections IV-F/VI-F/VI-G
// overhead analysis.
func BenchmarkStorageOverhead(b *testing.B) {
	tables := runExperiment(b, "overhead")
	b.ReportMetric(float64(len(tables[1].Rows)), "model-batch-rows")
}

// BenchmarkDeterminismCharacterization regenerates the Section V-B
// GPU/TPU/SCNN latency-determinism studies.
func BenchmarkDeterminismCharacterization(b *testing.B) {
	tables := runExperiment(b, "determinism")
	rows := rowByLabel(tables[0])
	b.ReportMetric(cell(b, rows["CloudTPUv2"][2]), "tpu-stddev-pct")
}

// BenchmarkClusterScaling regenerates the beyond-paper multi-NPU node
// experiment (routing policies x local schedulers x node sizes).
func BenchmarkClusterScaling(b *testing.B) {
	tables := runExperiment(b, "cluster")
	// Last row: 4 NPUs, least-work router, Dynamic-PREMA.
	last := tables[0].Rows[len(tables[0].Rows)-1]
	b.ReportMetric(cell(b, last[3]), "4npu-prema-antt")
	b.ReportMetric(cell(b, last[4]), "4npu-prema-stp")
}

// BenchmarkKillGranularity regenerates the footnote-2 restart-granularity
// ablation (KILL from scratch vs from layer vs CHECKPOINT).
func BenchmarkKillGranularity(b *testing.B) {
	tables := runExperiment(b, "killgranularity")
	rows := tables[0].Rows
	b.ReportMetric(cell(b, rows[0][4]), "ckpt-wasted-Mcycles")
	b.ReportMetric(cell(b, rows[1][4]), "killlayer-wasted-Mcycles")
	b.ReportMetric(cell(b, rows[2][4]), "kill-wasted-Mcycles")
}

// BenchmarkEnergyAccounting regenerates the Section VI-F energy argument:
// PREMA's overhead is negligible, KILL's re-execution is not.
func BenchmarkEnergyAccounting(b *testing.B) {
	tables := runExperiment(b, "energy")
	rows := rowByLabel(tables[0])
	b.ReportMetric(cell(b, rows["Dynamic-PREMA"][8]), "prema-energy-x")
	b.ReportMetric(cell(b, rows["StaticKill-PREMA"][8]), "kill-energy-x")
}

// BenchmarkLoadCurve regenerates the sustained-load throughput-latency
// curves (serving regime, beyond-paper extension).
func BenchmarkLoadCurve(b *testing.B) {
	tables := runExperiment(b, "loadcurve")
	// Highest-load row: NP-FCFS vs PREMA mean NTT.
	last := tables[0].Rows[len(tables[0].Rows)-1]
	b.ReportMetric(cell(b, last[1]), "fcfs-ntt-at95load")
	b.ReportMetric(cell(b, last[5]), "prema-ntt-at95load")
}

// BenchmarkCheckpointSpill regenerates the Section VI-G finite-storage
// sweep.
func BenchmarkCheckpointSpill(b *testing.B) {
	tables := runExperiment(b, "spill")
	rows := tables[0].Rows
	b.ReportMetric(cell(b, rows[0][2]), "unlimited-ckpt-us")
	b.ReportMetric(cell(b, rows[len(rows)-1][2]), "1mb-pool-ckpt-us")
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------

// BenchmarkCompileVGG16 measures lowering VGG-16 (batch 4) to the NPU
// instruction stream.
func BenchmarkCompileVGG16(b *testing.B) {
	c, err := compiler.New(npu.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m := dnn.VGG16()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compile(m, 4, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileRNNMT2 measures lowering the character-level translator
// with a long unrolled decode.
func BenchmarkCompileRNNMT2(b *testing.B) {
	c, err := compiler.New(npu.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m, err := dnn.ByName("RNN-MT2")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compile(m, 1, 30, 160); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutionAdvance measures stepping an execution cursor through
// a compiled VGG-16 program in quantum-sized slices.
func BenchmarkExecutionAdvance(b *testing.B) {
	cfg := npu.DefaultConfig()
	c, err := compiler.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := c.Compile(dnn.VGG16(), 4, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	quantum := cfg.Cycles(sched.DefaultConfig().Quantum)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := npu.NewExecution(prog)
		for !e.Done() {
			e.Advance(quantum)
		}
	}
}

// BenchmarkSystolicStream measures the functional cycle-stepped systolic
// array on a 32x32 tile with 64 activation columns.
func BenchmarkSystolicStream(b *testing.B) {
	a, err := systolic.New(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	w := make([][]int32, 32)
	for i := range w {
		w[i] = make([]int32, 32)
		for j := range w[i] {
			w[i][j] = int32(i - j)
		}
	}
	if err := a.LoadWeights(w); err != nil {
		b.Fatal(err)
	}
	act := make([][]int32, 64)
	for t := range act {
		act[t] = make([]int32, 32)
		for i := range act[t] {
			act[t][i] = int32(t + i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Stream(act); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateEightTasksPREMA measures one full 8-task multi-tenant
// simulation under Dynamic-PREMA, the paper's primary configuration.
func BenchmarkSimulateEightTasksPREMA(b *testing.B) {
	cfg := npu.DefaultConfig()
	scfg := sched.DefaultConfig()
	gen, err := workload.NewGenerator(cfg, 0xA11CE)
	if err != nil {
		b.Fatal(err)
	}
	policy, err := sched.ByName("PREMA", scfg)
	if err != nil {
		b.Fatal(err)
	}
	selector, err := sched.SelectorByName("dynamic")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tasks, err := gen.Generate(workload.Spec{Tasks: 8}, workload.RNGFor(1, i%16))
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.New(sim.Options{NPU: cfg, Sched: scfg, Policy: policy,
			Preemptive: true, Selector: selector}, workload.SchedTasks(tasks))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
