// Command premapredict exercises PREMA's inference-time prediction model
// (Algorithm 1 plus the seq2seq length regression): it predicts a model
// instance's network-wide latency, simulates it, and reports the error.
//
// Usage:
//
//	premapredict -model CNN-VN -batch 4
//	premapredict -model RNN-MT2 -batch 1 -samples 20
//	premapredict -all
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	prema "repro"
)

func main() {
	var (
		modelName = flag.String("model", "", "workload label (see premazoo); empty with -all sweeps the suite")
		batch     = flag.Int("batch", 1, "batch size")
		samples   = flag.Int("samples", 10, "sampled instances per model (RNN lengths vary)")
		all       = flag.Bool("all", false, "sweep the whole benchmark suite")
	)
	flag.Parse()

	sys, err := prema.NewSystem()
	if err != nil {
		fatal(err)
	}
	cfg := sys.NPU()

	var models []*prema.Model
	if *all || *modelName == "" {
		for _, name := range prema.SuiteModels() {
			m, err := sys.Model(name)
			if err != nil {
				fatal(err)
			}
			models = append(models, m)
		}
	} else {
		m, err := sys.Model(*modelName)
		if err != nil {
			fatal(err)
		}
		models = []*prema.Model{m}
	}

	fmt.Printf("%-10s %-5s %-9s %-12s %-12s %-8s\n",
		"model", "batch", "inLen", "predicted", "simulated", "error")
	for _, m := range models {
		var errSum float64
		for i := 0; i < *samples; i++ {
			insts, err := sys.Instances(i, prema.TaskSpec{Model: m.Name, Batch: *batch})
			if err != nil {
				fatal(err)
			}
			task := insts[0]
			pred := cfg.Millis(task.EstimatedCycles)
			act := cfg.Millis(task.Program.TotalCycles)
			e := math.Abs(pred-act) / act
			errSum += e
			if i == 0 || m.IsRNN() {
				fmt.Printf("%-10s b%-4d %-9d %-12.3f %-12.3f %-8.2f%%\n",
					m.Name, *batch, task.InLen, pred, act, e*100)
			}
			if !m.IsRNN() {
				break // CNNs are deterministic; one sample suffices
			}
		}
		if m.IsRNN() {
			fmt.Printf("%-10s b%-4d %-9s %-12s %-12s avg %.2f%%\n",
				m.Name, *batch, "-", "-", "-", errSum/float64(*samples)*100)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "premapredict:", err)
	os.Exit(1)
}
