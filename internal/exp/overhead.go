package exp

import (
	"fmt"

	"repro/internal/dnn"
	"repro/internal/preempt"
	"repro/internal/profile"
	"repro/internal/scnn"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "overhead",
		Title: "Implementation and storage overheads of PREMA (Sections IV-F/VI-F/VI-G)",
		Run:   runOverhead,
	})
	register(Experiment{
		ID:    "determinism",
		Title: "Latency determinism characterization: GPUs, TPUv2, SCNN (Section V-B)",
		Run:   runDeterminism,
	})
}

// runOverhead regenerates the overhead analysis: the context-table SRAM
// footprint (Section VI-F) and the checkpointed-state storage footprints
// per model and batch (Section VI-G).
func runOverhead(s *Suite) ([]*Table, error) {
	sram := &Table{
		ID:      "overhead-sram",
		Title:   "Inference task context table SRAM (Figure 4, Section VI-F)",
		Headers: []string{"co-located tasks", "bits", "bytes"},
		Note:    "448 bits per task; 16 tasks -> 7168 bits (~0.01 mm^2 in 32nm)",
	}
	for _, n := range []int{1, 4, 8, 16, 32} {
		bits := preempt.ContextTableBits(n)
		sram.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", bits), fmt.Sprintf("%d", bits/8))
	}

	storage := &Table{
		ID:    "overhead-storage",
		Title: "Checkpoint storage footprints (Section VI-G)",
		Headers: []string{"model", "batch", "max live ckpt (MB)",
			"total activations (MB)", "weights (MB)"},
		Note: "activation footprints reach hundreds of MBs at batch 16; NPU-local DRAM holds tens of contexts",
	}
	for _, m := range dnn.Suite() {
		for _, b := range dnn.BatchSizes {
			inLen, outLen := 0, 0
			if m.IsRNN() {
				inLen = (m.MinInLen + m.MaxInLen) / 2
				pred, err := s.Gen.Library().Predictor(m.SeqProfile)
				if err != nil {
					return nil, err
				}
				outLen = pred.Regression().Predict(inLen)
			}
			prog, err := s.Gen.Compiler().Compile(m, b, inLen, outLen)
			if err != nil {
				return nil, err
			}
			var totalAct int64
			for _, r := range m.Runs(inLen, outLen) {
				for _, l := range r.Body {
					totalAct += dnn.Bytes(l.OutputElems(b)) * int64(r.Times)
				}
			}
			storage.AddRow(m.Name, fmt.Sprintf("b%02d", b),
				fmt.Sprintf("%.2f", mb(prog.MaxLiveBytes())),
				fmt.Sprintf("%.1f", mb(totalAct)),
				fmt.Sprintf("%.1f", mb(m.TotalWeightBytes(inLen, outLen))))
		}
	}
	return []*Table{sram, storage}, nil
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// runDeterminism regenerates the three-part characterization behind the
// prediction model (Section V-B): GPU kernel latency variation stays
// within ~4% of the mean, Cloud TPUv2 within ~0.2% standard deviation,
// and a sparsity-optimized SCNN within 14% (average ~6%) despite
// input-dependent activation sparsity.
func runDeterminism(s *Suite) ([]*Table, error) {
	gpu := &Table{
		ID:      "determinism-gpu",
		Title:   "Profiled per-layer latency variation across 1000 runs (50 layer configs)",
		Headers: []string{"device", "max deviation %", "avg stddev %"},
		Note:    "GPUs: measured latency always within ~4% of the average; TPUv2 ~0.2% stddev",
	}
	devices := profile.Devices()
	var samples []float64 // one buffer for every layer's profiled samples
	for _, d := range devices {
		layers := profile.LayerConfigs(50)
		if d.Name == "CloudTPUv2" {
			layers = profile.LayerConfigs(100)
		}
		var maxDev, sumStd float64
		for i, l := range layers {
			rng := workload.RNGFor(s.Seed^0xDE7, i+hash8(d.Name))
			samples = d.Measure(samples[:0], l, 1, 1000, rng)
			v := profile.Summarize(samples)
			if v.MaxDevFrac > maxDev {
				maxDev = v.MaxDevFrac
			}
			sumStd += v.StdDevFrac
		}
		gpu.AddRow(d.Name,
			fmt.Sprintf("%.2f", maxDev*100),
			fmt.Sprintf("%.2f", sumStd/float64(len(layers))*100))
	}

	sc := &Table{
		ID:      "determinism-scnn",
		Title:   "SCNN-style sparse accelerator latency variation (500 inferences, pruned CNNs)",
		Headers: []string{"model", "mean (ms @1GHz)", "max deviation %", "avg deviation %"},
		Note:    "execution time never deviated more than ~14% (average ~6%) from the mean",
	}
	scfg := scnn.DefaultConfig()
	for _, name := range []string{"CNN-AN", "CNN-GN", "CNN-VN"} {
		m, err := dnn.ByName(name)
		if err != nil {
			return nil, err
		}
		rng := workload.RNGFor(s.Seed^0x5C22, hash8(name))
		mean, maxDev, avgDev, err := scfg.CharacterizeVariation(m, 1, 500, 0.3, rng)
		if err != nil {
			return nil, err
		}
		sc.AddRow(name,
			fmt.Sprintf("%.3f", mean/1e6),
			fmt.Sprintf("%.1f", maxDev*100),
			fmt.Sprintf("%.1f", avgDev*100))
	}
	return []*Table{gpu, sc}, nil
}
