package exp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dnn"
	"repro/internal/seqlen"
	"repro/internal/sparsity"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Per-layer activation density stability (VGGNet, 1000 inferences)",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Seq2seq input vs time-unrolled output length characterization",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Per-layer MAC count vs execution time (architecture-awareness)",
		Run:   runFig10,
	})
}

// runFig7 regenerates Figure 7: changes in VGGNet's per-layer activation
// density across 1000 inference tests — the paper's evidence that
// activation sparsity is stable at inference time.
func runFig7(s *Suite) ([]*Table, error) {
	const inferences = 1000
	rng := workload.RNGFor(s.Seed^0x0F17, 0)
	summaries := sparsity.Characterize(sparsity.VGGProfile(), inferences, rng)
	t := &Table{
		ID:      "fig7",
		Title:   "VGGNet per-layer activation density over 1000 inferences",
		Headers: []string{"layer", "mean", "p25", "p75", "min", "max", "spread(p75-p25)"},
		Note:    "per-layer density varies little across inputs (narrow bands)",
	}
	profile := sparsity.VGGProfile()
	for i, sum := range summaries {
		t.AddRow(profile[i].Layer,
			fmt.Sprintf("%.3f", sum.Mean),
			fmt.Sprintf("%.3f", sum.P25),
			fmt.Sprintf("%.3f", sum.P75),
			fmt.Sprintf("%.3f", sum.Min),
			fmt.Sprintf("%.3f", sum.Max),
			fmt.Sprintf("%.3f", sum.IQR()))
	}
	return []*Table{t}, nil
}

// runFig9 regenerates Figure 9: for each non-linear RNN application the
// boxplot of unrolled output lengths per input length, plus the geomean
// the regression lookup table stores.
func runFig9(s *Suite) ([]*Table, error) {
	lib := s.Gen.Library()
	var tables []*Table
	panels := []struct {
		id, profile, title string
	}{
		{"fig9a", "mt-de", "Translation English-German"},
		{"fig9b", "mt-ko", "Translation English-Korean"},
		{"fig9c", "mt-zh", "Translation English-Chinese"},
		{"fig9d", "asr", "Automatic speech recognition"},
	}
	for _, p := range panels {
		pred, err := lib.Predictor(p.profile)
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID:      p.id,
			Title:   p.title + ": output length vs input length",
			Headers: []string{"inLen", "n", "p25", "median", "p75", "min", "max", "regression(geomean)"},
			Note:    "25-75% interquartile range falls within a narrow boundary",
		}
		// Bucket the profiled input lengths the way the figure's
		// x-axis does.
		var inLens []int
		seen := map[int]bool{}
		for _, sample := range pred.Corpus.Samples {
			if !seen[sample.InLen] {
				seen[sample.InLen] = true
				inLens = append(inLens, sample.InLen)
			}
		}
		sort.Ints(inLens)
		step := 5
		if p.profile == "asr" {
			step = 10
		}
		for _, in := range inLens {
			if in%step != 0 {
				continue
			}
			sum := pred.Corpus.SummaryFor(in)
			if sum.N == 0 {
				continue
			}
			t.AddRow(fmt.Sprintf("%d", in), fmt.Sprintf("%d", sum.N),
				fmt.Sprintf("%.0f", sum.P25),
				fmt.Sprintf("%.0f", sum.Median),
				fmt.Sprintf("%.0f", sum.P75),
				fmt.Sprintf("%.0f", sum.Min),
				fmt.Sprintf("%.0f", sum.Max),
				fmt.Sprintf("%d", pred.Regression.Predict(in)))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// runFig10 regenerates Figure 10: every GEMM layer of the 8-benchmark
// suite plotted as (MAC count, execution time). The low-effective-
// throughput outliers — layers whose shape underutilizes the systolic
// array, such as the 1x1 convolutions of MobileNet/GoogLeNet — are
// flagged, demonstrating why a MAC-count proxy mispredicts and an
// architecture-aware model is required.
func runFig10(s *Suite) ([]*Table, error) {
	an := s.Gen.Analytic()
	cfg := s.NPU
	const batch = 1

	type point struct {
		model, layer string
		macs         int64
		us           float64
		macsPerCycle float64
	}
	var points []point
	for _, m := range dnn.Suite() {
		inLen, outLen := 0, 0
		if m.IsRNN() {
			inLen = (m.MinInLen + m.MaxInLen) / 2
			pred, err := s.Gen.Library().Predictor(m.SeqProfile)
			if err != nil {
				return nil, err
			}
			outLen = pred.Regression.Predict(inLen)
		}
		// Each body once: unrolled RNN steps repeat identical cells.
		for _, r := range m.Runs(inLen, outLen) {
			for _, l := range r.Body {
				g, ok := l.GEMM(batch)
				if !ok {
					continue
				}
				cycles := an.LayerCycles(g)
				if cycles == 0 {
					continue
				}
				points = append(points, point{
					model: m.Name, layer: l.Name,
					macs:         g.MACs(),
					us:           cfg.Micros(cycles),
					macsPerCycle: float64(g.MACs()) / float64(cycles),
				})
			}
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].macs < points[j].macs })

	peak := float64(cfg.SW * cfg.SH)
	t := &Table{
		ID:    "fig10",
		Title: "Layer MACs vs execution time (batch 1); outliers underutilize the array",
		Headers: []string{"model", "layer", "MACs", "time(us)", "eff. MACs/cycle",
			"utilization", "outlier"},
		Note: "execution time is not proportional to MACs; 1x1 CONVs suffer low effective throughput",
	}
	// Also compute the rank correlation between MACs and time to show
	// the proxy's weakness quantitatively.
	var logM, logT []float64
	for _, p := range points {
		util := p.macsPerCycle / peak
		outlier := ""
		if util < 0.05 {
			outlier = "YES"
		}
		t.AddRow(p.model, p.layer,
			fmt.Sprintf("%d", p.macs),
			fmt.Sprintf("%.1f", p.us),
			fmt.Sprintf("%.0f", p.macsPerCycle),
			fmt.Sprintf("%.1f%%", util*100),
			outlier)
		logM = append(logM, math.Log(float64(p.macs)))
		logT = append(logT, math.Log(p.us))
	}
	t.Note += fmt.Sprintf("; log-log corr(MACs,time)=%.2f over %d layers",
		correlation(logM, logT), len(points))
	return []*Table{t}, nil
}

// correlation returns the Pearson correlation of two equal-length samples.
func correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

var _ = seqlen.DefaultCorpusSize
