// Package predictor implements PREMA's inference-time prediction model
// (Section V-B). The primary predictor is the architecture-aware analytic
// model of Algorithm 1, which exploits the NPU's deterministic
// weight-stationary dataflow to estimate each layer's execution time from
// its GEMM shape, and composes node-level estimates into a network-wide
// latency using the (predicted, for RNNs) number of unrolled nodes.
//
// Three alternatives are provided for ablation:
//
//   - Profile: the paper's initial proposal — bookkept average per-layer
//     latencies from profiled runs (Section V-B's GPU/TPUv2 approach).
//   - Oracle: the exact simulated execution time (Section VI-D).
//   - MACProxy: a deliberately naive estimate proportional to MAC count,
//     which Figure 10 shows to be misleading because it ignores how the
//     layer maps onto the array.
package predictor

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/dnn"
	"repro/internal/npu"
	"repro/internal/seqlen"
)

// Analytic is the Algorithm 1 predictor for a systolic-array NPU.
type Analytic struct {
	cfg npu.Config
	lib *seqlen.Library
}

// NewAnalytic builds the analytic predictor. lib supplies the
// profile-driven unrolled-length regression for RNNs and may be nil when
// only CNNs will be predicted.
func NewAnalytic(cfg npu.Config, lib *seqlen.Library) (*Analytic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Analytic{cfg: cfg, lib: lib}, nil
}

// LayerCycles estimates one GEMM layer's execution time per Algorithm 1:
// the inner tiles cost max(C1, M1) where C1 = ACC + SH + 2*SW and M1 is
// the double-buffered tile fetch, and the residual outer tiles cost
// max(C2, M2) with the residue columns.
func (a *Analytic) LayerCycles(g dnn.GEMMShape) int64 {
	if !g.Valid() {
		return 0
	}
	cfg := a.cfg
	mTiles := ceil(g.M, cfg.SW)
	kTiles := ceil(g.K, cfg.SH)
	nInner := g.N / cfg.ACC
	outerN := g.N % cfg.ACC

	inner := compiler.TileTime(cfg, cfg.SH, cfg.ACC)
	var total int64
	total += int64(mTiles) * int64(kTiles) * int64(nInner) * inner
	if outerN > 0 {
		outer := compiler.TileTime(cfg, cfg.SH, outerN)
		total += int64(mTiles) * int64(kTiles) * outer
	}
	return total
}

// VectorCycles estimates a vector-unit layer (depthwise convolution,
// pooling, standalone activation): element throughput bound by the lanes
// or by memory. This extends Algorithm 1 — which covers only GEMM nodes —
// so that MobileNet's depthwise stages are predictable too.
func (a *Analytic) VectorCycles(l dnn.Layer, batch int) int64 {
	cfg := a.cfg
	compute := (l.MACs(batch) + int64(cfg.VectorLanes) - 1) / int64(cfg.VectorLanes)
	mem := cfg.MemCycles(dnn.Bytes(l.InputElems(batch)) + dnn.Bytes(l.WeightElems()))
	if mem > compute {
		return mem
	}
	return compute
}

// EstimateLayers runs Algorithm 1 over an explicit layer list.
func (a *Analytic) EstimateLayers(layers []dnn.Layer, batch int) int64 {
	var total int64
	for _, l := range layers {
		if g, ok := l.GEMM(batch); ok {
			total += a.LayerCycles(g)
			continue
		}
		total += a.VectorCycles(l, batch)
	}
	return total
}

// Estimate predicts the network-wide inference cycles for a model
// instance. CNNs use the static DAG; RNNs first predict the unrolled
// recurrence length from the statically-known input length via the
// profile-driven regression (Section V-B), then estimate the instance's
// runs at that length.
func (a *Analytic) Estimate(m *dnn.Model, batch, inLen int) (int64, error) {
	if batch <= 0 {
		return 0, fmt.Errorf("predictor: non-positive batch %d", batch)
	}
	outLen := 0
	if m.IsRNN() {
		if a.lib == nil {
			return 0, fmt.Errorf("predictor: RNN model %q needs a seqlen library", m.Name)
		}
		p, err := a.lib.Predictor(m.SeqProfile)
		if err != nil {
			return 0, err
		}
		outLen = p.Regression.Predict(inLen)
	}
	return a.EstimateWithOutLen(m, batch, inLen, outLen), nil
}

// EstimateWithOutLen predicts using a known output length (used by tests
// and the oracle comparisons). Each body is estimated once and counted as
// often as the instance repeats it: Algorithm 1's node-level estimates
// composed by the number of unrolled nodes.
func (a *Analytic) EstimateWithOutLen(m *dnn.Model, batch, inLen, outLen int) int64 {
	var total int64
	for _, r := range m.Runs(inLen, outLen) {
		total += a.EstimateLayers(r.Body, batch) * int64(r.Times)
	}
	return total
}

func ceil(x, d int) int { return (x + d - 1) / d }

// Profile is the bookkeeping predictor: it memoizes the true average
// per-layer latency (keyed by layer name and batch) from completed
// executions, the way the paper's initial proposal profiles GPUs/TPUs.
type Profile struct {
	cfg      npu.Config
	lib      *seqlen.Library
	fallback *Analytic
	table    map[string]profEntry
}

type profEntry struct {
	totalCycles int64
	count       int64
}

// NewProfile builds a profile predictor that falls back to the analytic
// model for layers it has never observed.
func NewProfile(cfg npu.Config, lib *seqlen.Library) (*Profile, error) {
	fb, err := NewAnalytic(cfg, lib)
	if err != nil {
		return nil, err
	}
	return &Profile{cfg: cfg, lib: lib, fallback: fb, table: make(map[string]profEntry)}, nil
}

func profKey(model, layer string, batch int) string {
	return fmt.Sprintf("%s/%s/b%d", model, layer, batch)
}

// Observe records a measured per-layer latency sample.
func (p *Profile) Observe(model, layer string, batch int, cycles int64) {
	p.observe(profKey(model, layer, batch), cycles, 1)
}

// observe records n samples of the same latency under key k.
func (p *Profile) observe(k string, cycles, n int64) {
	e := p.table[k]
	e.totalCycles += cycles * n
	e.count += n
	p.table[k] = e
}

// ObserveProgram ingests a compiled program's per-layer latencies as
// profiling ground truth (the "profile once, amortize over all future
// inferences" workflow of Section V-B). The compiler gives the program
// one run per run of the instance, and every repetition of a body runs
// the same blocks, so each body layer is one sample per repetition of
// the latency of its block.
func (p *Profile) ObserveProgram(m *dnn.Model, prog *npu.Program) {
	for i, r := range m.Runs(prog.InLen, prog.OutLen) {
		run := prog.Runs[i]
		for j, l := range r.Body {
			s := run.Body[j]
			var cycles int64
			for _, in := range prog.Instrs[s.Off : s.Off+s.Len] {
				cycles += int64(in.Cycles)
			}
			p.observe(profKey(m.Name, l.Name, prog.Batch), cycles, int64(run.Times))
		}
	}
}

// Estimate predicts network-wide cycles from profiled layer averages,
// falling back to the analytic model for unprofiled layers.
func (p *Profile) Estimate(m *dnn.Model, batch, inLen int) (int64, error) {
	outLen := 0
	if m.IsRNN() {
		lp, err := p.lib.Predictor(m.SeqProfile)
		if err != nil {
			return 0, err
		}
		outLen = lp.Regression.Predict(inLen)
	}
	var total int64
	for _, r := range m.Runs(inLen, outLen) {
		for _, l := range r.Body {
			var cycles int64
			if e, ok := p.table[profKey(m.Name, l.Name, batch)]; ok && e.count > 0 {
				cycles = e.totalCycles / e.count
			} else if g, ok := l.GEMM(batch); ok {
				cycles = p.fallback.LayerCycles(g)
			} else {
				cycles = p.fallback.VectorCycles(l, batch)
			}
			total += cycles * int64(r.Times)
		}
	}
	return total, nil
}

// MACProxy estimates time as MACs divided by peak throughput — the naive
// proxy Figure 10 warns against, provided for the ablation benches.
type MACProxy struct {
	cfg npu.Config
	lib *seqlen.Library
}

// NewMACProxy builds the proxy predictor.
func NewMACProxy(cfg npu.Config, lib *seqlen.Library) *MACProxy {
	return &MACProxy{cfg: cfg, lib: lib}
}

// Estimate returns MACs / peak MACs-per-cycle for the instance.
func (mp *MACProxy) Estimate(m *dnn.Model, batch, inLen int) (int64, error) {
	outLen := 0
	if m.IsRNN() {
		lp, err := mp.lib.Predictor(m.SeqProfile)
		if err != nil {
			return 0, err
		}
		outLen = lp.Regression.Predict(inLen)
	}
	macs := m.TotalMACs(batch, inLen, outLen)
	perCycle := int64(mp.cfg.SW) * int64(mp.cfg.SH)
	return (macs + perCycle - 1) / perCycle, nil
}
