package exp

import (
	"fmt"
	"time"

	"repro/internal/ckptmem"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "loadcurve",
		Title: "Sustained-load throughput-latency curves per scheduler (serving regime)",
		Run:   runLoadCurve,
	})
	register(Experiment{
		ID:    "spill",
		Title: "Checkpoint storage oversubscription (Section VI-G): NPU pool size sweep",
		Run:   runSpill,
	})
	register(Experiment{
		ID:    "batching",
		Title: "Dynamic batching window sweep (TensorRT-server runtime feature, Figure 1 setup)",
		Run:   runBatching,
	})
}

// runBatching sweeps the dynamic-batching window at a CNN-heavy overload
// and reports the throughput/latency trade, with and without PREMA.
func runBatching(s *Suite) ([]*Table, error) {
	server := serving.NewServer(s.NPU, s.Sched, s.Gen)
	t := &Table{
		ID:    "batching",
		Title: "Dynamic batching at 1.6x offered CNN load (members/s and per-request latency)",
		Headers: []string{"window", "scheduler", "mean batch", "throughput (inf/s)",
			"mean latency (ms)", "p95 (ms)"},
		Note: "batching recovers throughput under overload at a bounded latency cost",
	}
	spec := serving.Spec{
		Horizon: 400 * time.Millisecond, OfferedLoad: 1.6,
		Models: []string{"CNN-AN", "CNN-GN", "CNN-VN", "CNN-MN"},
	}
	const trials = 3
	for _, window := range []time.Duration{0, time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond} {
		for _, c := range []struct {
			label      string
			policy     string
			preemptive bool
		}{
			{"NP-FCFS", "FCFS", false},
			{"Dynamic-PREMA", "PREMA", true},
		} {
			perTrial := make([]serving.BatchStats, trials)
			err := s.ForEach(trials, func(trial int) error {
				st, err := server.RunBatched(serving.BatchSpec{Spec: spec, Window: window},
					c.policy, c.preemptive, "dynamic", workload.RNGFor(s.Seed^0xBA7C, trial))
				if err != nil {
					return err
				}
				perTrial[trial] = st
				return nil
			})
			if err != nil {
				return nil, err
			}
			var batch, thr, lat, p95 float64
			for _, st := range perTrial {
				batch += st.MeanBatch / trials
				thr += st.ThroughputPerSec / trials
				lat += st.MeanLatencyMS / trials
				p95 += st.P95LatencyMS / trials
			}
			t.AddRow(window.String(), c.label,
				fmt.Sprintf("%.1f", batch),
				fmt.Sprintf("%.0f", thr),
				fmt.Sprintf("%.1f", lat),
				fmt.Sprintf("%.1f", p95))
		}
	}
	return []*Table{t}, nil
}

// runLoadCurve sweeps offered load for NP-FCFS, P-SJF, and Dynamic-PREMA
// over identical Poisson arrival streams — the serving-level view of the
// paper's scheduling claims.
func runLoadCurve(s *Suite) ([]*Table, error) {
	server := serving.NewServer(s.NPU, s.Sched, s.Gen)
	configs := []struct {
		label      string
		policy     string
		preemptive bool
		selector   string
	}{
		{"NP-FCFS", "FCFS", false, ""},
		{"P-SJF", "SJF", true, "static-checkpoint"},
		{"Dynamic-PREMA", "PREMA", true, "dynamic"},
	}
	t := &Table{
		ID:    "loadcurve",
		Title: "Mean NTT (and p95 latency ms) vs offered load, 400ms Poisson streams",
		Headers: []string{"offered load", "NP-FCFS NTT", "NP-FCFS p95",
			"P-SJF NTT", "P-SJF p95", "PREMA NTT", "PREMA p95"},
		Note: "PREMA holds the latency knee to far higher load than NP-FCFS",
	}
	const trials = 4
	for _, load := range []float64{0.3, 0.5, 0.7, 0.85, 0.95} {
		row := []string{fmt.Sprintf("%.2f", load)}
		for _, c := range configs {
			perTrial := make([]serving.Stats, trials)
			err := s.ForEach(trials, func(trial int) error {
				st, err := server.Run(serving.Spec{
					Horizon: 400 * time.Millisecond, OfferedLoad: load,
				}, c.policy, c.preemptive, c.selector, workload.RNGFor(s.Seed^0x10AD, trial))
				if err != nil {
					return err
				}
				perTrial[trial] = st
				return nil
			})
			if err != nil {
				return nil, err
			}
			var ntt, p95 float64
			for _, st := range perTrial {
				ntt += st.MeanNTT / trials
				p95 += st.P95LatencyMS / trials
			}
			row = append(row, fmt.Sprintf("%.2f", ntt), fmt.Sprintf("%.1f", p95))
		}
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// runSpill sweeps the NPU-local checkpoint pool from "unlimited" down to
// a fraction of one context, measuring the checkpoint-overhead growth and
// the ANTT cost as contexts spill to host memory over the slow link —
// quantifying when Section VI-G's proactive migration starts to matter.
func runSpill(s *Suite) ([]*Table, error) {
	t := &Table{
		ID:    "spill",
		Title: "Dynamic-PREMA under finite checkpoint storage (16 tasks, batch 16)",
		Headers: []string{"NPU ckpt pool", "ANTT", "avg ckpt overhead (us/task)",
			"vs unlimited ANTT"},
		Note: "GBs of NPU memory make spilling irrelevant; pathological pools surface the host link",
	}
	pools := []struct {
		label string
		bytes int64
	}{
		{"unlimited", 0},
		{"4 GB", 4 << 30},
		{"64 MB", 64 << 20},
		{"8 MB", 8 << 20},
		{"1 MB", 1 << 20},
	}
	spec := workload.Spec{Tasks: 16, BatchSizes: []int{16}}
	const runs = 8
	var baseANTT float64
	for pi, pool := range pools {
		// Fan the runs out through the engine; each run owns its policy,
		// selector and checkpoint-memory manager.
		type spillRun struct {
			antt   float64
			ckptUS float64
		}
		perRun := make([]spillRun, runs)
		err := s.ForEach(runs, func(r int) error {
			policy, err := sched.ByName("PREMA", s.Sched)
			if err != nil {
				return err
			}
			selector, err := sched.SelectorByName("dynamic")
			if err != nil {
				return err
			}
			rng := workload.RNGFor(s.Seed^0x5B111, r)
			tasks, err := s.Gen.Generate(spec, rng)
			if err != nil {
				return err
			}
			opt := sim.Options{
				NPU: s.NPU, Sched: s.Sched,
				Policy: policy, Preemptive: true, Selector: selector,
			}
			if pool.bytes > 0 {
				cfg := ckptmem.DefaultConfig()
				cfg.NPUMemBytes = pool.bytes
				mem, err := ckptmem.New(cfg)
				if err != nil {
					return err
				}
				opt.CkptMem = mem
			}
			simulator, err := sim.New(opt, workload.Entries(tasks))
			if err != nil {
				return err
			}
			res, err := simulator.Run()
			if err != nil {
				return err
			}
			m, err := metrics.FromTasks(res.Tasks)
			if err != nil {
				return err
			}
			var ck int64
			for _, task := range res.Tasks {
				ck += task.CheckpointCycles
			}
			perRun[r] = spillRun{
				antt:   m.ANTT,
				ckptUS: s.NPU.Micros(ck) / float64(len(res.Tasks)),
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var antt, ckptUS float64
		for _, pr := range perRun {
			antt += pr.antt / runs
			ckptUS += pr.ckptUS / runs
		}
		if pi == 0 {
			baseANTT = antt
		}
		t.AddRow(pool.label,
			fmt.Sprintf("%.2f", antt),
			fmt.Sprintf("%.1f", ckptUS),
			fmt.Sprintf("%.3fx", antt/baseANTT))
	}
	return []*Table{t}, nil
}
