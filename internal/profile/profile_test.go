package profile

import (
	"testing"

	"repro/internal/stats"
)

// device looks a profiled device up by name in the roster.
func device(t *testing.T, name string) Device {
	t.Helper()
	for _, d := range Devices() {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("device %q missing from the roster", name)
	return Device{}
}

func TestDevicesRoster(t *testing.T) {
	devs := Devices()
	if len(devs) != 5 {
		t.Fatalf("%d devices, want 5 (four GPUs + Cloud TPUv2, Section V-B)", len(devs))
	}
	tpu := device(t, "CloudTPUv2")
	v100 := device(t, "V100")
	if tpu.Jitter >= v100.Jitter {
		t.Error("TPUv2 must be steadier than the GPUs (0.2% vs ~4% bound)")
	}
}

func TestBaseLatencyDeterministicAndOrdered(t *testing.T) {
	layers := LayerConfigs(10)
	v100 := device(t, "V100")
	gtx := device(t, "GTX1070")
	for _, l := range layers {
		a := v100.BaseLatency(l, 1)
		b := v100.BaseLatency(l, 1)
		if a != b {
			t.Fatal("base latency not deterministic")
		}
		if v100.BaseLatency(l, 1) >= gtx.BaseLatency(l, 1) {
			t.Errorf("V100 should be faster than GTX1070 on %s", l.Name)
		}
	}
}

func TestGPUVariationWithinPaperBound(t *testing.T) {
	// Section V-B(1): across 1000 runs, GPU latency always falls within
	// ~4% of the average.
	layers := LayerConfigs(50)
	if len(layers) < 20 {
		t.Fatalf("only %d layer configs generated", len(layers))
	}
	v100 := device(t, "V100")
	rng := stats.NewRNG(1, 2)
	for _, l := range layers {
		v := v100.Characterize(l, 1, 1000, rng)
		if v.MaxDevFrac > 0.08 {
			t.Errorf("%s: max deviation %.1f%% too wide", l.Name, v.MaxDevFrac*100)
		}
		if v.StdDevFrac <= 0 {
			t.Errorf("%s: zero variance is not a measurement", l.Name)
		}
	}
}

func TestTPUVariationTighter(t *testing.T) {
	// Section V-B(2): TPUv2 shows ~0.2% standard deviation.
	tpu := device(t, "CloudTPUv2")
	rng := stats.NewRNG(3, 4)
	layers := LayerConfigs(100)
	var sum float64
	for _, l := range layers {
		sum += tpu.Characterize(l, 1, 200, rng).StdDevFrac
	}
	avg := sum / float64(len(layers))
	if avg > 0.004 {
		t.Errorf("TPUv2 average stddev %.2f%% above the 0.2%% regime", avg*100)
	}
}

func TestLayerConfigsCount(t *testing.T) {
	if got := len(LayerConfigs(25)); got != 25 {
		t.Errorf("LayerConfigs(25) returned %d", got)
	}
	for _, l := range LayerConfigs(30) {
		if err := l.Validate(); err != nil {
			t.Errorf("generated layer invalid: %v", err)
		}
	}
}
