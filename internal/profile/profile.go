// Package profile synthesizes the profiled-latency corpora of the
// paper's determinism characterization (Section V-B items 1-2): measured
// per-layer-configuration latencies on off-the-shelf GPUs (within 4% of
// the mean across 1000 runs) and on Google Cloud TPUv2 (0.2% standard
// deviation across 100 configurations).
//
// The real measurements are unavailable, so this package generates
// corpora with the same variance structure around a device-specific
// deterministic base latency; the predictor-validation experiments only
// consume the variance bounds, which is precisely the property the
// paper's argument rests on.
package profile

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/dnn"
	"repro/internal/stats"
)

// Device is one profiled accelerator.
type Device struct {
	// Name labels the device ("V100", "TitanXp", "TitanV", "GTX1070",
	// "CloudTPUv2").
	Name string
	// PeakMACsPerSec scales the deterministic base latency.
	PeakMACsPerSec float64
	// Efficiency is the sustained fraction of peak for dense layers.
	Efficiency float64
	// Jitter is the run-to-run relative standard deviation (GPUs:
	// about 1.3% so 1000-run samples stay within ~4% of the mean;
	// TPUv2: 0.2%).
	Jitter float64
}

// Devices returns the profiled-device set of Section V-B.
func Devices() []Device {
	return []Device{
		{Name: "V100", PeakMACsPerSec: 62e12, Efficiency: 0.55, Jitter: 0.013},
		{Name: "TitanXp", PeakMACsPerSec: 12e12, Efficiency: 0.50, Jitter: 0.013},
		{Name: "TitanV", PeakMACsPerSec: 55e12, Efficiency: 0.52, Jitter: 0.013},
		{Name: "GTX1070", PeakMACsPerSec: 6.5e12, Efficiency: 0.48, Jitter: 0.013},
		{Name: "CloudTPUv2", PeakMACsPerSec: 22.5e12, Efficiency: 0.60, Jitter: 0.002},
	}
}

// BaseLatency returns the device's deterministic latency for one layer at
// the given batch size, in seconds.
func (d Device) BaseLatency(l dnn.Layer, batch int) float64 {
	macs := float64(l.MACs(batch))
	lat := macs / (d.PeakMACsPerSec * d.Efficiency)
	const kernelLaunch = 5e-6 // fixed per-kernel overhead
	return lat + kernelLaunch
}

// Measure simulates n profiled runs of one layer and returns the samples
// in seconds: the deterministic base perturbed by the device's jitter
// (GPU DNN kernels are not input-data dependent, so there is no branch or
// memory divergence to widen the distribution).
func (d Device) Measure(l dnn.Layer, batch, n int, rng *rand.Rand) []float64 {
	base := d.BaseLatency(l, batch)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base * (1 + rng.NormFloat64()*d.Jitter)
	}
	return xs
}

// Variation summarizes a profiled sample: its mean and the maximum
// relative deviation of any sample from that mean.
type Variation struct {
	MeanSeconds float64
	MaxDevFrac  float64
	StdDevFrac  float64
}

// Characterize profiles one layer n times and summarizes the variation.
func (d Device) Characterize(l dnn.Layer, batch, n int, rng *rand.Rand) Variation {
	xs := d.Measure(l, batch, n, rng)
	mean := stats.Mean(xs)
	v := Variation{MeanSeconds: mean}
	for _, x := range xs {
		dev := x - mean
		if dev < 0 {
			dev = -dev
		}
		if f := dev / mean; f > v.MaxDevFrac {
			v.MaxDevFrac = f
		}
	}
	v.StdDevFrac = stats.StdDev(xs) / mean
	return v
}

// LayerConfigs returns a spread of layer types and configurations for
// the characterization sweep (the paper profiles 50 GPU configurations
// and 100 TPUv2 configurations); n controls how many are generated.
func LayerConfigs(n int) []dnn.Layer {
	var out []dnn.Layer
	channels := []int{32, 64, 128, 256, 512}
	sizes := []int{7, 14, 28, 56, 112}
	kernels := []int{1, 3, 5}
	i := 0
	for _, c := range channels {
		for _, s := range sizes {
			for _, k := range kernels {
				if k > s {
					continue
				}
				out = append(out, dnn.NewConv(
					fmt.Sprintf("conv%dx%d_c%d_s%d", k, k, c, s), s, s, c, c, k, 1, k/2))
				i++
				if i >= n {
					return out
				}
			}
		}
	}
	for _, inF := range []int{512, 1024, 4096, 9216} {
		for _, outF := range []int{1000, 4096} {
			out = append(out, dnn.NewFC(fmt.Sprintf("fc_%dx%d", inF, outF), inF, outF, false))
			i++
			if i >= n {
				return out
			}
		}
	}
	return out
}
