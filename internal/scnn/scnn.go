// Package scnn is a simplified timing model of a sparsity-optimized CNN
// accelerator in the style of SCNN, used for the predictability
// characterization of Section V-B(3): even on sparse accelerators —
// whose execution time depends on the non-zero counts of weights and
// activations — inference latency stays predictable, because weight
// sparsity is fixed after pruning and activation density varies little
// across inputs (Figure 7).
//
// The model computes a layer's cycles as the effectual (non-zero x
// non-zero) MAC work spread over the multiplier array, plus accumulation
// and output-gather overheads, bounded below by input/output delivery
// bandwidth. It is intentionally first-order: the experiment only needs
// latency *variation* across inputs, not absolute SCNN fidelity.
package scnn

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/dnn"
	"repro/internal/sparsity"
	"repro/internal/stats"
)

// Config describes the sparse accelerator.
type Config struct {
	// Multipliers is the total multiplier count across PEs (SCNN: 64
	// PEs x 16 multipliers).
	Multipliers int
	// AccumulatorBanks bounds the scatter-add throughput per cycle.
	AccumulatorBanks int
	// MemBWBytesPerCycle is the compressed-activation delivery
	// bandwidth.
	MemBWBytesPerCycle float64
	// CrossbarOverhead inflates cycles to model output-crossbar
	// contention on the scattered accumulations.
	CrossbarOverhead float64
}

// DefaultConfig returns an SCNN-like configuration.
func DefaultConfig() Config {
	return Config{
		Multipliers:        1024,
		AccumulatorBanks:   2048,
		MemBWBytesPerCycle: 256,
		CrossbarOverhead:   1.15,
	}
}

// Validate checks the configuration.
//
//premalint:ignore testonly a check; scnn's TestConfigValidate runs it on DefaultConfig and broken configs
func (c Config) Validate() error {
	if c.Multipliers <= 0 || c.AccumulatorBanks <= 0 {
		return fmt.Errorf("scnn: non-positive array dims")
	}
	if c.MemBWBytesPerCycle <= 0 {
		return fmt.Errorf("scnn: non-positive bandwidth")
	}
	if c.CrossbarOverhead < 1 {
		return fmt.Errorf("scnn: crossbar overhead must be >= 1")
	}
	return nil
}

// LayerCycles returns the layer's execution cycles given its weight
// density (fixed after pruning) and this input's activation density.
func (c Config) LayerCycles(l dnn.Layer, batch int, weightDensity, actDensity float64) int64 {
	macs := float64(l.MACs(batch))
	// Effectual work scales with the product of densities (only
	// non-zero x non-zero pairs are computed).
	effectual := macs * weightDensity * actDensity
	compute := effectual / float64(c.Multipliers) * c.CrossbarOverhead
	// Compressed input delivery.
	inBytes := float64(dnn.Bytes(l.InputElems(batch))) * actDensity
	wBytes := float64(dnn.Bytes(l.WeightElems())) * weightDensity
	mem := (inBytes + wBytes) / c.MemBWBytesPerCycle
	cycles := compute
	if mem > cycles {
		cycles = mem
	}
	return int64(cycles) + 1
}

// InferenceCycles runs one synthetic inference of a pruned CNN: each
// layer's activation density is drawn from its profile and the per-layer
// cycles are summed. weightDensity models the pruned weight density
// (fixed across inputs).
func (c Config) InferenceCycles(m *dnn.Model, batch int, profile []sparsity.LayerProfile,
	weightDensity float64, rng *rand.Rand) (int64, error) {
	if m.IsRNN() {
		return 0, fmt.Errorf("scnn: model %q is recurrent; SCNN characterization uses CNNs", m.Name)
	}
	var total int64
	pi := 0
	for _, l := range m.Static {
		switch l.Kind {
		case dnn.Conv, dnn.FC:
			act := 0.5
			if pi < len(profile) {
				act = profile[pi].Sample(rng)
				pi++
			}
			total += c.LayerCycles(l, batch, weightDensity, act)
		default:
			// Pool/activation layers on sparse accelerators are
			// negligible; skip them as SCNN does.
		}
	}
	return total, nil
}

// CharacterizeVariation runs n inferences and reports the latency
// variation statistics the paper quotes (execution time deviating at most
// 14%, on average 6%, from the mean).
func (c Config) CharacterizeVariation(m *dnn.Model, batch, n int, weightDensity float64,
	rng *rand.Rand) (meanCycles float64, maxDevFrac float64, avgDevFrac float64, err error) {

	profile, err := sparsity.ProfileFor(m.Name)
	if err != nil {
		return 0, 0, 0, err
	}
	xs := make([]float64, n)
	for i := 0; i < n; i++ {
		cyc, err := c.InferenceCycles(m, batch, profile, weightDensity, rng)
		if err != nil {
			return 0, 0, 0, err
		}
		xs[i] = float64(cyc)
	}
	mean := stats.Mean(xs)
	var maxDev, sumDev float64
	for _, x := range xs {
		dev := x - mean
		if dev < 0 {
			dev = -dev
		}
		frac := dev / mean
		if frac > maxDev {
			maxDev = frac
		}
		sumDev += frac
	}
	return mean, maxDev, sumDev / float64(n), nil
}
