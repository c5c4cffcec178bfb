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
	windows := []time.Duration{0, time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond}
	configs := []SchedulerConfig{NP("FCFS"), DynamicCkpt("PREMA")}
	specs := schedSpecs(configs)
	const trials = 3
	// One coalesced stream per (window, trial), run under both
	// schedulers.
	perTrial := make([][]serving.BatchStats, len(windows)*trials)
	err := s.ForEach(len(perTrial), func(i int) error {
		st, err := server.RunBatched(serving.BatchSpec{Spec: spec, Window: windows[i/trials]},
			specs, workload.RNGFor(s.Seed^0xBA7C, i%trials))
		perTrial[i] = st
		return err
	})
	if err != nil {
		return nil, err
	}
	for wi, window := range windows {
		for ci, c := range configs {
			var batch, thr, lat, p95 float64
			for _, sts := range perTrial[wi*trials : (wi+1)*trials] {
				st := sts[ci]
				batch += st.MeanBatch / trials
				thr += st.ThroughputPerSec / trials
				lat += st.MeanLatencyMS / trials
				p95 += st.P95LatencyMS / trials
			}
			t.AddRow(window.String(), c.Label,
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
	configs := []SchedulerConfig{NP("FCFS"), StaticCkpt("SJF"), DynamicCkpt("PREMA")}
	t := &Table{
		ID:    "loadcurve",
		Title: "Mean NTT (and p95 latency ms) vs offered load, 400ms Poisson streams",
		Headers: []string{"offered load", "NP-FCFS NTT", "NP-FCFS p95",
			"P-SJF NTT", "P-SJF p95", "PREMA NTT", "PREMA p95"},
		Note: "PREMA holds the latency knee to far higher load than NP-FCFS",
	}
	specs := schedSpecs(configs)
	loads := []float64{0.3, 0.5, 0.7, 0.85, 0.95}
	const trials = 4
	// One Poisson stream per (load, trial), run under every scheduler.
	perTrial := make([][]serving.Stats, len(loads)*trials)
	err := s.ForEach(len(perTrial), func(i int) error {
		st, err := server.Run(serving.Spec{
			Horizon: 400 * time.Millisecond, OfferedLoad: loads[i/trials],
		}, specs, workload.RNGFor(s.Seed^0x10AD, i%trials))
		perTrial[i] = st
		return err
	})
	if err != nil {
		return nil, err
	}
	for li, load := range loads {
		row := []string{fmt.Sprintf("%.2f", load)}
		for ci := range configs {
			var ntt, p95 float64
			for _, sts := range perTrial[li*trials : (li+1)*trials] {
				ntt += sts[ci].MeanNTT / trials
				p95 += sts[ci].P95LatencyMS / trials
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
	type spillRun struct {
		antt   float64
		ckptUS float64
	}
	// One job per run: its workload is drawn once and simulated against
	// every pool, each simulation owning its policy, selector and
	// checkpoint-memory manager and refilling the run's one slab of
	// entries; the results are reduced per pool in run order.
	perRun := make([]spillRun, len(pools)*runs)
	err := s.ForEach(runs, func(r int) error {
		tasks, err := s.Gen.Generate(spec, workload.RNGFor(s.Seed^0x5B111, r))
		if err != nil {
			return err
		}
		entries := workload.Slab(len(tasks))
		for pi, pool := range pools {
			opt := sim.Options{Sched: s.Sched}
			if pool.bytes > 0 {
				cfg := ckptmem.DefaultConfig()
				cfg.NPUMemBytes = pool.bytes
				mem, err := ckptmem.New(cfg)
				if err != nil {
					return err
				}
				opt.CkptMem = mem
			}
			res, err := s.simulate(sched.Spec{Policy: "PREMA", Preemptive: true}, opt, workload.Refill(entries, tasks))
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
			perRun[pi*runs+r] = spillRun{
				antt:   m.ANTT,
				ckptUS: s.NPU.Micros(ck) / float64(len(res.Tasks)),
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var baseANTT float64
	for pi, pool := range pools {
		var antt, ckptUS float64
		for _, pr := range perRun[pi*runs : (pi+1)*runs] {
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
