package exp

import (
	"fmt"
	"math"

	"repro/internal/dnn"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "accuracy",
		Title: "Prediction model accuracy vs simulated execution time (Section VI-A/D)",
		Run:   runAccuracy,
	})
	register(Experiment{
		ID:    "predictors",
		Title: "Predictor ablation: analytic vs profile-based vs MAC proxy",
		Run:   runPredictorAblation,
	})
}

// runAccuracy measures the Algorithm 1 predictor's estimation error and
// its correlation with the simulated inference time across many sampled
// task instances: the paper reports ~1.6% error and ~98% correlation.
func runAccuracy(s *Suite) ([]*Table, error) {
	const samplesPerModel = 60

	t := &Table{
		ID:    "accuracy",
		Title: "Prediction error per model (predicted vs simulated inference time)",
		Headers: []string{"model", "batch-avg err %", "b1 err %", "b4 err %", "b16 err %",
			"correlation"},
		Note: "average estimation error ~1.6%; ~98% correlation with simulated time",
	}

	var allPred, allActual []float64
	var globalErrSum float64
	var globalN int
	for _, m := range dnn.Suite() {
		var rowErr [3]float64
		var rowN [3]int
		var pv, av []float64
		for i := 0; i < samplesPerModel; i++ {
			rng := workload.RNGFor(s.Seed^0xACC, i*7919+hash8(m.Name))
			b := dnn.BatchSizes[i%len(dnn.BatchSizes)]
			task, err := s.Gen.Instance(0, m, b, sched.Medium, 0, nil, rng)
			if err != nil {
				return nil, err
			}
			actual := float64(task.Program.TotalCycles)
			pred := float64(task.EstimatedCycles)
			errFrac := math.Abs(pred-actual) / actual
			rowErr[i%3] += errFrac
			rowN[i%3]++
			globalErrSum += errFrac
			globalN++
			pv = append(pv, pred)
			av = append(av, actual)
		}
		allPred = append(allPred, pv...)
		allActual = append(allActual, av...)
		avg := (rowErr[0] + rowErr[1] + rowErr[2]) / float64(rowN[0]+rowN[1]+rowN[2])
		t.AddRow(m.Name,
			fmt.Sprintf("%.2f", avg*100),
			fmt.Sprintf("%.2f", safeDiv(rowErr[0], float64(rowN[0]))*100),
			fmt.Sprintf("%.2f", safeDiv(rowErr[1], float64(rowN[1]))*100),
			fmt.Sprintf("%.2f", safeDiv(rowErr[2], float64(rowN[2]))*100),
			fmt.Sprintf("%.3f", correlation(pv, av)))
	}
	t.AddRow("Overall",
		fmt.Sprintf("%.2f", globalErrSum/float64(globalN)*100),
		"", "", "",
		fmt.Sprintf("%.3f", correlation(allPred, allActual)))
	return []*Table{t}, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runPredictorAblation compares the three predictor designs the paper
// discusses: the architecture-aware analytic model (Algorithm 1), the
// profile-based bookkeeping predictor, and the naive MAC-count proxy
// (Figure 10's warning).
func runPredictorAblation(s *Suite) ([]*Table, error) {
	const samples = 40
	lib := s.Gen.Library()
	analytic := s.Gen.Analytic()
	prof, err := predictor.NewProfile(s.NPU, lib)
	if err != nil {
		return nil, err
	}
	proxy := predictor.NewMACProxy(s.NPU, lib)

	// Warm the profile predictor with one observed program per
	// (model, batch): the pay-once profiling pass of Section V-B.
	for _, m := range dnn.Suite() {
		for _, b := range dnn.BatchSizes {
			rng := workload.RNGFor(s.Seed^0xFEED, hash8(m.Name)+b)
			task, err := s.Gen.Instance(0, m, b, sched.Medium, 0, nil, rng)
			if err != nil {
				return nil, err
			}
			prof.ObserveProgram(task.ModelRef, task.Program)
		}
	}

	t := &Table{
		ID:      "predictors",
		Title:   "Mean |error| % per predictor design",
		Headers: []string{"model", "analytic (Alg.1)", "profile-based", "MAC proxy"},
		Note:    "MAC proxy mispredicts layers that underutilize the array (Figure 10)",
	}
	for _, m := range dnn.Suite() {
		var errA, errP, errX float64
		for i := 0; i < samples; i++ {
			rng := workload.RNGFor(s.Seed^0xFACE, i*31+hash8(m.Name))
			b := dnn.BatchSizes[i%len(dnn.BatchSizes)]
			task, err := s.Gen.Instance(0, m, b, sched.Medium, 0, nil, rng)
			if err != nil {
				return nil, err
			}
			actual := float64(task.Program.TotalCycles)
			ea, err := analytic.Estimate(task.ModelRef, b, task.InLen)
			if err != nil {
				return nil, err
			}
			ep, err := prof.Estimate(task.ModelRef, b, task.InLen)
			if err != nil {
				return nil, err
			}
			ex, err := proxy.Estimate(task.ModelRef, b, task.InLen)
			if err != nil {
				return nil, err
			}
			errA += math.Abs(float64(ea)-actual) / actual
			errP += math.Abs(float64(ep)-actual) / actual
			errX += math.Abs(float64(ex)-actual) / actual
		}
		n := float64(samples)
		t.AddRow(m.Name,
			fmt.Sprintf("%.2f", errA/n*100),
			fmt.Sprintf("%.2f", errP/n*100),
			fmt.Sprintf("%.2f", errX/n*100))
	}
	return []*Table{t}, nil
}
