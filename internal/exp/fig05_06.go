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

// mechNames are the static mechanisms Figures 5 and 6 compare.
var mechNames = [...]string{"kill", "checkpoint", "drain"}

// mechPairs is one two-task trial's outcome under every mechanism, in
// mechNames order.
type mechPairs [len(mechNames)]mechPair

// mechJob is one flattened (victim x preemptor x trial) two-task
// preemption trial.
type mechJob struct {
	victim, pre *dnn.Model
	vb, pb      int
	trial       int
}

// runMechTrial executes the Section IV-D methodology once: a low-priority
// task (victim) starts at cycle 0; a high-priority preemptor arrives at a
// uniformly random point of the victim's isolated execution; P-HPF with
// each static mechanism services the preemption. The workload is drawn
// once and run under NP-FCFS once, for the Figure 6 normalizations, and
// under P-HPF once per mechanism.
func runMechTrial(s *Suite, j mechJob) (mechPairs, error) {
	rng := workload.RNGFor(s.Seed^0xF5F6, j.trial)
	vt, err := s.Gen.Instance(0, j.victim, j.vb, sched.Low, 0, nil, rng)
	if err != nil {
		return mechPairs{}, err
	}
	// Preemption point uniformly random across the victim's execution
	// (Section IV-D), away from the extreme edges so a preemption is
	// actually possible.
	frac := 0.05 + 0.9*rng.Float64()
	arrival := int64(frac * float64(vt.Program.TotalCycles))
	pt, err := s.Gen.Instance(1, j.pre, j.pb, sched.High, arrival, nil, rng)
	if err != nil {
		return mechPairs{}, err
	}
	tasks := []*workload.Task{vt, pt}
	runWith := func(spec sched.Spec) (*sim.Result, *sched.Task, metrics.Run, error) {
		res, err := s.simulate(spec, sim.Options{Sched: s.Sched, Record: true}, workload.Entries(tasks))
		if err != nil {
			return nil, nil, metrics.Run{}, err
		}
		// The preemptor is task ID 1 in every run.
		var pre *sched.Task
		for _, t := range res.Tasks {
			if t.ID == 1 {
				pre = t
			}
		}
		if pre == nil {
			return nil, nil, metrics.Run{}, fmt.Errorf("exp: preemptor task missing from results")
		}
		m, err := metrics.FromTasks(res.Tasks)
		return res, pre, m, err
	}
	_, basePre, baseM, err := runWith(NP("FCFS").Spec)
	if err != nil {
		return mechPairs{}, err
	}

	var out mechPairs
	for mi, mech := range mechNames {
		mechRes, mechPre, mechM, err := runWith(sched.Spec{Policy: "HPF", Preemptive: true, Selector: "static-" + mech})
		if err != nil {
			return mechPairs{}, err
		}
		p := &out[mi]
		// Figure 5(a): the first serviced preemption's latency. DRAIN
		// runs record a zero-latency event; trials where the preemptor
		// arrived while the NPU was already free produce no event and
		// are skipped for the latency average (no preemption happened).
		for _, ev := range mechRes.Preemptions {
			if ev.Preempting == 1 {
				p.preemptLatencyUS = s.NPU.Micros(ev.Cost.Latency())
				p.ok = true
				break
			}
		}
		p.waitUS = s.NPU.Micros(mechPre.Start - mechPre.Arrival)
		p.stpRatio = mechM.STP / baseM.STP
		p.nttRatio = basePre.NTT() / mechPre.NTT()
	}
	return out, nil
}

// mechIndex flattens an (outer-model, batch, trial) tuple into a
// job-list index. Figure 5/6 job construction and result consumption
// both address through it, so the pairing cannot drift.
func mechIndex(nb, trials, oi, bi, trial int) int {
	return (oi*nb+bi)*trials + trial
}

// runMechTrials fans the trials out through the engine; results come back
// index-aligned with jobs so reductions preserve sequential order.
func runMechTrials(s *Suite, jobs []mechJob) ([]mechPairs, error) {
	out := make([]mechPairs, len(jobs))
	err := s.ForEach(len(jobs), func(i int) error {
		p, err := runMechTrial(s, jobs[i])
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

	// Flatten every (victim x batch x trial) into one job list — the
	// preemptor draw depends only on (trial, batch), exactly as in the
	// sequential methodology — and fan it out; each job runs every
	// mechanism. Construction and consumption share mechIndex, so
	// results cannot drift out of alignment with their (victim, batch)
	// row.
	nb := len(dnn.BatchSizes)
	jobs := make([]mechJob, len(suite)*nb*trials)
	for vi, victim := range suite {
		for bi, b := range dnn.BatchSizes {
			for trial := 0; trial < trials; trial++ {
				rng := workload.RNGFor(s.Seed^0xABCD, trial*131+b)
				pre := suite[rng.IntN(len(suite))]
				preB := dnn.BatchSizes[rng.IntN(len(dnn.BatchSizes))]
				jobs[mechIndex(nb, trials, vi, bi, trial)] = mechJob{
					victim: victim, pre: pre, vb: b, pb: preB, trial: trial}
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
					p := pairs[mechIndex(nb, trials, vi, bi, trial)][mi]
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

	// Flatten (preemptor x batch x trial) and fan out, each job running
	// every mechanism; the victim draw depends only on (trial, batch) as
	// in the sequential methodology. mechIndex keys both construction
	// and consumption.
	nb := len(dnn.BatchSizes)
	jobs := make([]mechJob, len(suite)*nb*trials)
	for pi, pre := range suite {
		for bi, b := range dnn.BatchSizes {
			for trial := 0; trial < trials; trial++ {
				rng := workload.RNGFor(s.Seed^0xDCBA, trial*137+b)
				victim := suite[rng.IntN(len(suite))]
				vb := dnn.BatchSizes[rng.IntN(len(dnn.BatchSizes))]
				jobs[mechIndex(nb, trials, pi, bi, trial)] = mechJob{
					victim: victim, pre: pre, vb: vb, pb: b, trial: trial}
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
					p := pairs[mechIndex(nb, trials, pi, bi, trial)][mi]
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
