// Command premazoo inspects the benchmark model zoo: the eight-model
// suite of Section III plus the auxiliary models, their per-layer GEMM
// lowerings, MAC counts, footprints, and simulated isolated latencies
// (Table I configuration).
//
// Usage:
//
//	premazoo                  # suite summary
//	premazoo -model CNN-VN    # per-layer detail
//	premazoo -config          # print the Table I / Table II configuration
package main

import (
	"flag"
	"fmt"
	"os"

	prema "repro"
)

func main() {
	var (
		modelName  = flag.String("model", "", "show per-layer detail for one model")
		batch      = flag.Int("batch", 1, "batch size for latency estimates")
		showConfig = flag.Bool("config", false, "print NPU and scheduler configuration")
		disasm     = flag.Bool("disasm", false, "disassemble the compiled NPU program (with -model)")
	)
	flag.Parse()

	sys, err := prema.NewSystem()
	if err != nil {
		fatal(err)
	}
	cfg := sys.NPU()
	if *showConfig {
		printConfig(sys)
		return
	}

	// lengths picks the representative sequence lengths for a model:
	// the mid-range input with the regression-predicted output.
	lengths := func(m *prema.Model) (int, int) {
		if !m.IsRNN() {
			return 0, 0
		}
		inLen := (m.MinInLen + m.MaxInLen) / 2
		outLen, err := sys.PredictOutputLen(m, inLen)
		if err != nil {
			fatal(err)
		}
		return inLen, outLen
	}

	if *modelName != "" {
		m, err := sys.Model(*modelName)
		if err != nil {
			fatal(err)
		}
		if *disasm {
			inLen, outLen := lengths(m)
			prog, err := sys.Compile(m, *batch, inLen, outLen)
			if err != nil {
				fatal(err)
			}
			if err := prema.Disassemble(prog, os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
		printModel(m, *batch)
		return
	}

	fmt.Printf("%-10s %-5s %-7s %-10s %-11s %-12s %-12s\n",
		"model", "class", "layers", "MACs(G)", "weights(MB)", "latency(ms)", "seq profile")
	for _, m := range prema.AllModels() {
		inLen, outLen := lengths(m)
		prog, err := sys.Compile(m, *batch, inLen, outLen)
		if err != nil {
			fatal(err)
		}
		profile := "-"
		if m.IsRNN() {
			profile = fmt.Sprintf("%s (in=%d out~%d)", m.SeqProfile, inLen, outLen)
		}
		fmt.Printf("%-10s %-5s %-7d %-10.2f %-11.1f %-12.3f %-12s\n",
			m.Name, m.Class, prog.Layers(),
			float64(prog.TotalMACs)/1e9,
			float64(m.TotalWeightBytes(inLen, outLen))/(1<<20),
			cfg.Millis(prog.TotalCycles), profile)
	}
}

func printModel(m *prema.Model, batch int) {
	inLen, outLen := 0, 0
	if m.IsRNN() {
		inLen = (m.MinInLen + m.MaxInLen) / 2
		outLen = inLen // representative unroll for inspection
	}
	fmt.Printf("%s (%s), batch %d\n\n", m.Name, m.Class, batch)
	fmt.Printf("%-16s %-7s %-24s %-10s %-10s\n", "layer", "kind", "GEMM (MxK)x(KxN)", "MACs(M)", "out(KB)")
	// Each body once: unrolled RNN steps repeat the same layers.
	for _, r := range m.Runs(inLen, outLen) {
		for _, l := range r.Body {
			gemm := "-"
			if g, ok := l.GEMM(batch); ok {
				gemm = g.String()
			}
			fmt.Printf("%-16s %-7s %-24s %-10.1f %-10.1f\n",
				l.Name, l.Kind, gemm,
				float64(l.MACs(batch))/1e6,
				float64(prema.ElemBytes(l.OutputElems(batch)))/1024)
		}
	}
}

func printConfig(sys *prema.System) {
	cfg := sys.NPU()
	fmt.Println("NPU configuration (Table I):")
	fmt.Printf("  systolic array        %dx%d PEs\n", cfg.SW, cfg.SH)
	fmt.Printf("  accumulator depth     %d\n", cfg.ACC)
	fmt.Printf("  frequency             %.0f MHz\n", cfg.FreqHz/1e6)
	fmt.Printf("  UBUF / WBUF           %d MB / %d MB\n", cfg.UBUFBytes>>20, cfg.WBUFBytes>>20)
	fmt.Printf("  memory channels       %d\n", cfg.MemChannels)
	fmt.Printf("  memory bandwidth      %.0f GB/s (%.1f B/cycle)\n",
		cfg.MemBWBytesPerSec/1e9, cfg.BytesPerCycle())
	fmt.Printf("  memory latency        %d cycles\n", cfg.MemLatencyCycles)
	fmt.Printf("  peak throughput       %.1f TMAC/s\n", cfg.PeakMACsPerSec()/1e12)
	scfg := sys.SchedConfig()
	fmt.Println("\nPREMA scheduler configuration (Table II):")
	fmt.Printf("  scheduling period     %v\n", scfg.Quantum)
	fmt.Printf("  tokens per priority   %v (low/medium/high)\n", scfg.TokenThresholdLevels)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "premazoo:", err)
	os.Exit(1)
}
