package exp

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/workload"
)

// This file registers the autoscaling experiment: the elastic-capacity
// scenario class no fixed-fleet experiment can express. A single-NPU
// node (bounded at 4 NPUs) serves piecewise offered-load profiles — a
// diurnal climb-and-fall and a sharp burst — under each built-in
// scaling policy and a sweep of latency SLOs, reporting how much fleet
// each policy spent (time-weighted mean NPUs) and how much SLO
// violation it bought down relative to the static fixed-minimum
// baseline at the same peak-capacity bound.

func init() {
	register(Experiment{
		ID:    "autoscale",
		Title: "SLO-driven autoscaling: policies x SLO targets x load ramps on a 1-4 NPU node",
		Run:   runAutoscale,
	})
}

// autoscaleCell is one (ramp x SLO x scaler) cell of the sweep.
type autoscaleCell struct {
	rampLabel string
	slo       time.Duration
	scaler    string
}

// autoscaleModels is the interactive mix the sweep serves: the light
// models, so single-digit-millisecond SLOs are attainable and each
// segment holds tens of requests (the heavy translation/ASR RNNs would
// violate any SLO at batch 1 regardless of fleet size).
var autoscaleModels = []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"}

// runAutoscale sweeps scaling policy x SLO target x load profile.
// Every (ramp x run) pair fans out through the engine's worker pool and
// serves its one drawn stream to each of the ramp's cells; per-cell
// reduction happens in run order afterwards, so output is independent
// of scheduling.
func runAutoscale(s *Suite) ([]*Table, error) {
	const (
		segment = 40 * time.Millisecond
		horizon = 200 * time.Millisecond // 5 segments
		minNPUs = 1
		maxNPUs = 4
	)
	ramps := []struct {
		label string
		loads []float64
	}{
		{"diurnal", []float64{0.4, 1.5, 3.0, 1.5, 0.4}},
		{"burst", []float64{0.5, 0.5, 3.5, 0.5, 0.5}},
	}
	scalers := []string{"static", "queue-depth", "target-latency"}
	slos := []time.Duration{4 * time.Millisecond, 10 * time.Millisecond}

	var cells []autoscaleCell
	for _, ramp := range ramps {
		for _, slo := range slos {
			for _, scaler := range scalers {
				cells = append(cells, autoscaleCell{rampLabel: ramp.label, slo: slo, scaler: scaler})
			}
		}
	}
	// Cells are listed ramp-major: ramp ri's cells are the block
	// cells[ri*perRamp : (ri+1)*perRamp].
	perRamp := len(cells) / len(ramps)

	srv := serving.NewServer(s.NPU, s.Sched, s.Gen)
	runs := s.Runs
	results := make([]serving.NodeStats, len(cells)*runs)
	// One job per (ramp, run): the ramp's arrival stream is drawn once,
	// seeded by (ramp, run) only, and every scaler and SLO of the ramp's
	// block serves it, so the rows compare policy effect on paired
	// workloads rather than sampling noise.
	err := s.ForEach(len(ramps)*runs, func(j int) error {
		ri, r := j/runs, j%runs
		stream, err := srv.GenerateRamp(serving.Spec{
			Horizon:    segment,
			Models:     autoscaleModels,
			BatchSizes: []int{1},
		}, ramps[ri].loads, workload.RNGFor(s.Seed^0xA5CA1E, j))
		if err != nil {
			return err
		}
		for ci := ri * perRamp; ci < (ri+1)*perRamp; ci++ {
			cell := cells[ci]
			ns, err := srv.OpenNode(serving.NodeConfig{
				NPUs:    minNPUs,
				Routing: cluster.LeastWork,
				Session: serving.SessionConfig{Policy: "FCFS", Horizon: horizon},
				Autoscale: &serving.AutoscaleConfig{
					Scaler:  cell.scaler,
					SLO:     cell.slo,
					MinNPUs: minNPUs,
					MaxNPUs: maxNPUs,
				},
			})
			if err != nil {
				return err
			}
			for _, req := range stream {
				if err := ns.Submit(req); err != nil {
					return err
				}
			}
			if results[ci*runs+r], err = ns.Drain(); err != nil {
				return err
			}
			if err := ns.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "autoscale",
		Title: "1-4 NPU node, FCFS local, least-work routing: scaling policy vs fleet cost and SLO violations",
		Headers: []string{"ramp", "SLO (ms)", "scaler", "mean NPUs", "peak", "events",
			"p95 lat (ms)", "SLO viol."},
		Note: "elastic fleets track the ramp: lower violation fractions than the fixed minimum at a fraction of the peak fleet-time",
	}
	for ci, cell := range cells {
		var meanNPUs, p95, viol, events float64
		peak := 0
		for r := 0; r < runs; r++ {
			st := results[ci*runs+r]
			meanNPUs += st.Scaling.MeanNPUs / float64(runs)
			p95 += st.P95LatencyMS / float64(runs)
			viol += st.Scaling.SLOViolationFrac / float64(runs)
			events += float64(len(st.Scaling.Events)-1) / float64(runs)
			if st.Scaling.PeakNPUs > peak {
				peak = st.Scaling.PeakNPUs
			}
		}
		t.AddRow(cell.rampLabel,
			fmt.Sprintf("%.0f", float64(cell.slo)/float64(time.Millisecond)),
			cell.scaler,
			fmt.Sprintf("%.2f", meanNPUs),
			fmt.Sprintf("%d", peak),
			fmt.Sprintf("%.1f", events),
			fmt.Sprintf("%.2f", p95),
			fmt.Sprintf("%.1f%%", viol*100))
	}
	return []*Table{t}, nil
}
