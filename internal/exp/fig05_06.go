package exp

import (
	"fmt"

	"repro/internal/dnn"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig5",
		Title: "Preemption latency and preempting-task wait time per mechanism",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "STP and preempting-task NTT improvement per mechanism (vs NP-FCFS)",
		Run:   runFig6,
	})
}

// mechPair is the outcome of one two-task preemption trial.
type mechPair struct {
	preemptLatencyUS float64 // Figure 5(a)
	waitUS           float64 // Figure 5(b)
	stpRatio         float64 // Figure 6(a): STP vs NP-FCFS
	nttRatio         float64 // Figure 6(b): preemptor NTT improvement
	ok               bool
}

// runMechTrial executes the Section IV-D methodology once: a low-priority
// task (victim) starts at cycle 0; a high-priority preemptor arrives at a
// uniformly random point of the victim's isolated execution; P-HPF with
// the given static mechanism services the preemption. The same workload
// is also run under NP-FCFS for the Figure 6 normalizations.
func runMechTrial(s *Suite, victim, preemptor *dnn.Model, victimBatch, preBatch int,
	mech string, trial int) (mechPair, error) {

	build := func(salt uint64) ([]*workload.Task, error) {
		rng := workload.RNGFor(s.Seed^salt, trial)
		vt, err := s.Gen.Instance(0, victim, victimBatch, sched.Low, 0, nil, rng)
		if err != nil {
			return nil, err
		}
		// Preemption point uniformly random across the victim's
		// execution (Section IV-D), away from the extreme edges so a
		// preemption is actually possible.
		frac := 0.05 + 0.9*rng.Float64()
		arrival := int64(frac * float64(vt.Program.TotalCycles))
		pt, err := s.Gen.Instance(1, preemptor, preBatch, sched.High, arrival, nil, rng)
		if err != nil {
			return nil, err
		}
		return []*workload.Task{vt, pt}, nil
	}

	runWith := func(cfg SchedulerConfig, tasks []*workload.Task) (*sim.Result, error) {
		policy, err := sched.ByName(cfg.Policy, s.Sched)
		if err != nil {
			return nil, err
		}
		var sel sched.MechanismSelector
		if cfg.Selector != "" {
			if sel, err = sched.SelectorByName(cfg.Selector); err != nil {
				return nil, err
			}
		}
		simulator, err := sim.New(sim.Options{
			NPU: s.NPU, Sched: s.Sched, Policy: policy,
			Preemptive: cfg.Preemptive, Selector: sel, Record: true,
		}, workload.Entries(tasks))
		if err != nil {
			return nil, err
		}
		return simulator.Run()
	}

	const salt = 0xF5F6
	baseTasks, err := build(salt)
	if err != nil {
		return mechPair{}, err
	}
	baseRes, err := runWith(NP("FCFS"), baseTasks)
	if err != nil {
		return mechPair{}, err
	}
	mechTasks, err := build(salt)
	if err != nil {
		return mechPair{}, err
	}
	cfg := SchedulerConfig{Label: "P-HPF/" + mech, Policy: "HPF",
		Preemptive: true, Selector: "static-" + mech}
	mechRes, err := runWith(cfg, mechTasks)
	if err != nil {
		return mechPair{}, err
	}

	var out mechPair
	// The preemptor is task ID 1 in both runs.
	var basePre, mechPre *sched.Task
	for _, t := range baseRes.Tasks {
		if t.ID == 1 {
			basePre = t
		}
	}
	for _, t := range mechRes.Tasks {
		if t.ID == 1 {
			mechPre = t
		}
	}
	if basePre == nil || mechPre == nil {
		return mechPair{}, fmt.Errorf("exp: preemptor task missing from results")
	}

	// Figure 5(a): the first serviced preemption's latency. DRAIN runs
	// record a zero-latency event; trials where the preemptor arrived
	// while the NPU was already free produce no event and are skipped
	// for the latency average (no preemption happened).
	found := false
	for _, ev := range mechRes.Preemptions {
		if ev.Preempting == 1 {
			out.preemptLatencyUS = s.NPU.Micros(ev.Cost.Latency())
			found = true
			break
		}
	}
	out.ok = found
	out.waitUS = s.NPU.Micros(mechPre.Start - mechPre.Arrival)

	baseM, err := metrics.FromTasks(baseRes.Tasks)
	if err != nil {
		return mechPair{}, err
	}
	mechM, err := metrics.FromTasks(mechRes.Tasks)
	if err != nil {
		return mechPair{}, err
	}
	out.stpRatio = mechM.STP / baseM.STP
	out.nttRatio = basePre.NTT() / mechPre.NTT()
	return out, nil
}

var mechNames = []string{"kill", "checkpoint", "drain"}

// mechJob is one flattened (victim x preemptor x mechanism x trial)
// two-task preemption trial.
type mechJob struct {
	victim, pre *dnn.Model
	vb, pb      int
	mech        string
	trial       int
}

// mechIndex flattens an (outer-model, batch, mechanism, trial) tuple into
// a job-list index. Figure 5/6 job construction and result consumption
// both address through it, so the pairing cannot drift.
func mechIndex(nb, nm, trials, oi, bi, mi, trial int) int {
	return ((oi*nb+bi)*nm+mi)*trials + trial
}

// runMechTrials fans the trials out through the engine; results come back
// index-aligned with jobs so reductions preserve sequential order.
func runMechTrials(s *Suite, jobs []mechJob) ([]mechPair, error) {
	out := make([]mechPair, len(jobs))
	err := s.ForEach(len(jobs), func(i int) error {
		j := jobs[i]
		p, err := runMechTrial(s, j.victim, j.pre, j.vb, j.pb, j.mech, j.trial)
		if err != nil {
			return err
		}
		out[i] = p
		return nil
	})
	return out, err
}

// runFig5 regenerates Figure 5: x-axis is the preempted (victim) model
// and batch size; the preemptor is drawn randomly per trial.
func runFig5(s *Suite) ([]*Table, error) {
	const trials = 12
	suite := dnn.Suite()

	lat := &Table{ID: "fig5a", Title: "Preemption latency (us) by preempted model x batch",
		Headers: []string{"preempted", "batch", "KILL", "CHECKPOINT", "DRAIN"},
		Note:    "KILL ~0; CHECKPOINT avg ~12us (worst ~59us with 8MB checkpointed); DRAIN 0"}
	wait := &Table{ID: "fig5b", Title: "Preempting task wait time (us) by preempted model x batch",
		Headers: []string{"preempted", "batch", "KILL", "CHECKPOINT", "DRAIN"},
		Note:    "KILL/CHECKPOINT near zero vs inference time; DRAIN avg ~5.3ms (5300us)"}

	sums := map[string][2]float64{} // mech -> [latency sum, wait sum] for the Avg row
	counts := map[string][2]float64{}

	// Flatten every (victim x batch x mechanism x trial) into one job
	// list — the preemptor draw depends only on (trial, batch), exactly
	// as in the sequential methodology — and fan it out. Construction
	// and consumption share mechIndex, so results cannot drift out of
	// alignment with their (victim, batch, mechanism) row.
	nb, nm := len(dnn.BatchSizes), len(mechNames)
	jobs := make([]mechJob, len(suite)*nb*nm*trials)
	for vi, victim := range suite {
		for bi, b := range dnn.BatchSizes {
			for mi, mech := range mechNames {
				for trial := 0; trial < trials; trial++ {
					rng := workload.RNGFor(s.Seed^0xABCD, trial*131+b)
					pre := suite[rng.IntN(len(suite))]
					preB := dnn.BatchSizes[rng.IntN(len(dnn.BatchSizes))]
					jobs[mechIndex(nb, nm, trials, vi, bi, mi, trial)] = mechJob{
						victim: victim, pre: pre,
						vb: b, pb: preB, mech: mech, trial: trial}
				}
			}
		}
	}
	pairs, err := runMechTrials(s, jobs)
	if err != nil {
		return nil, err
	}

	for vi, victim := range suite {
		for bi, b := range dnn.BatchSizes {
			latRow := []string{victim.Name, fmt.Sprintf("b%02d", b)}
			waitRow := []string{victim.Name, fmt.Sprintf("b%02d", b)}
			for mi, mech := range mechNames {
				var latSum, waitSum float64
				var latN, waitN int
				for trial := 0; trial < trials; trial++ {
					p := pairs[mechIndex(nb, nm, trials, vi, bi, mi, trial)]
					if p.ok {
						latSum += p.preemptLatencyUS
						latN++
					}
					waitSum += p.waitUS
					waitN++
				}
				avgLat, avgWait := 0.0, 0.0
				if latN > 0 {
					avgLat = latSum / float64(latN)
				}
				if waitN > 0 {
					avgWait = waitSum / float64(waitN)
				}
				latRow = append(latRow, fmt.Sprintf("%.2f", avgLat))
				waitRow = append(waitRow, fmt.Sprintf("%.1f", avgWait))
				sl := sums[mech]
				cl := counts[mech]
				sl[0] += avgLat
				sl[1] += avgWait
				cl[0]++
				cl[1]++
				sums[mech] = sl
				counts[mech] = cl
			}
			lat.Rows = append(lat.Rows, latRow)
			wait.Rows = append(wait.Rows, waitRow)
		}
	}
	latAvg := []string{"Avg", ""}
	waitAvg := []string{"Avg", ""}
	for _, mech := range mechNames {
		latAvg = append(latAvg, fmt.Sprintf("%.2f", sums[mech][0]/counts[mech][0]))
		waitAvg = append(waitAvg, fmt.Sprintf("%.1f", sums[mech][1]/counts[mech][1]))
	}
	lat.Rows = append(lat.Rows, latAvg)
	wait.Rows = append(wait.Rows, waitAvg)
	return []*Table{lat, wait}, nil
}

// runFig6 regenerates Figure 6: x-axis is the preempting model and batch;
// the victim is drawn randomly per trial.
func runFig6(s *Suite) ([]*Table, error) {
	const trials = 12
	suite := dnn.Suite()

	stp := &Table{ID: "fig6a", Title: "STP vs NP-FCFS by preempting model x batch",
		Headers: []string{"preempting", "batch", "KILL", "CHECKPOINT", "DRAIN"},
		Note:    "KILL degrades STP more than CHECKPOINT; short preemptors benefit"}
	ntt := &Table{ID: "fig6b", Title: "Preempting task NTT improvement vs NP-FCFS",
		Headers: []string{"preempting", "batch", "KILL", "CHECKPOINT", "DRAIN"},
		Note:    "KILL avg ~3.08x, CHECKPOINT avg ~3.06x NTT improvement"}

	sums := map[string][2]float64{}
	var rows float64

	// Flatten (preemptor x batch x mechanism x trial) and fan out; the
	// victim draw depends only on (trial, batch) as in the sequential
	// methodology. mechIndex keys both construction and consumption.
	nb, nm := len(dnn.BatchSizes), len(mechNames)
	jobs := make([]mechJob, len(suite)*nb*nm*trials)
	for pi, pre := range suite {
		for bi, b := range dnn.BatchSizes {
			for mi, mech := range mechNames {
				for trial := 0; trial < trials; trial++ {
					rng := workload.RNGFor(s.Seed^0xDCBA, trial*137+b)
					victim := suite[rng.IntN(len(suite))]
					vb := dnn.BatchSizes[rng.IntN(len(dnn.BatchSizes))]
					jobs[mechIndex(nb, nm, trials, pi, bi, mi, trial)] = mechJob{
						victim: victim, pre: pre,
						vb: vb, pb: b, mech: mech, trial: trial}
				}
			}
		}
	}
	pairs, err := runMechTrials(s, jobs)
	if err != nil {
		return nil, err
	}

	for pi, pre := range suite {
		for bi, b := range dnn.BatchSizes {
			stpRow := []string{pre.Name, fmt.Sprintf("b%02d", b)}
			nttRow := []string{pre.Name, fmt.Sprintf("b%02d", b)}
			for mi, mech := range mechNames {
				var stpSum, nttSum float64
				for trial := 0; trial < trials; trial++ {
					p := pairs[mechIndex(nb, nm, trials, pi, bi, mi, trial)]
					stpSum += p.stpRatio
					nttSum += p.nttRatio
				}
				stpRow = append(stpRow, fmt.Sprintf("%.2f", stpSum/float64(trials)))
				nttRow = append(nttRow, fmt.Sprintf("%.2f", nttSum/float64(trials)))
				sl := sums[mech]
				sl[0] += stpSum / float64(trials)
				sl[1] += nttSum / float64(trials)
				sums[mech] = sl
			}
			rows++
			stp.Rows = append(stp.Rows, stpRow)
			ntt.Rows = append(ntt.Rows, nttRow)
		}
	}
	stpAvg := []string{"Avg", ""}
	nttAvg := []string{"Avg", ""}
	for _, mech := range mechNames {
		stpAvg = append(stpAvg, fmt.Sprintf("%.2f", sums[mech][0]/rows))
		nttAvg = append(nttAvg, fmt.Sprintf("%.2f", sums[mech][1]/rows))
	}
	stp.Rows = append(stp.Rows, stpAvg)
	ntt.Rows = append(ntt.Rows, nttAvg)
	return []*Table{stp, ntt}, nil
}
