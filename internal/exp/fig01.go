package exp

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/dnn"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Co-locating GoogLeNet and ResNet on one NPU under NP-FCFS (motivation)",
		Run:   runFig1,
	})
}

// runFig1 regenerates the Figure 1 motivation experiment: two inference
// request streams — GoogLeNet and ResNet — each offered at a fraction of
// the model's saturated service rate. Executed in isolation the NPU idles
// between requests; co-locating both streams on one NPU under the
// baseline NP-FCFS scheduler raises aggregate throughput at the cost of
// queueing-induced latency, the trade-off that motivates preemptive
// multi-tasking.
func runFig1(s *Suite) ([]*Table, error) {
	const (
		batch       = 4
		requests    = 16   // per stream
		loadFactor  = 0.55 // offered load relative to saturation
		trialsPerMx = 5
	)
	models := []*dnn.Model{dnn.GoogLeNet(), dnn.ResNet50()}

	type streamStats struct {
		throughput float64 // inferences per second
		latencyMS  float64 // mean turnaround
	}

	// makeStream builds back-pressured arrivals for one model: requests
	// spaced at isolated-latency/loadFactor with uniform jitter.
	makeStream := func(m *dnn.Model, idBase int, rng *rand.Rand) ([]*workload.Task, error) {
		probe, err := s.Gen.Instance(idBase, m, batch, sched.Medium, 0, nil, rng)
		if err != nil {
			return nil, err
		}
		gap := float64(probe.Program.TotalCycles) / loadFactor
		var tasks []*workload.Task
		for i := 0; i < requests; i++ {
			arrival := int64(float64(i)*gap) + rng.Int64N(int64(gap/2)+1)
			t, err := s.Gen.Instance(idBase+i, m, batch, sched.Medium, arrival, nil, rng)
			if err != nil {
				return nil, err
			}
			tasks = append(tasks, t)
		}
		return tasks, nil
	}

	run := func(tasks []*workload.Task) (streamStats, error) {
		policy, err := sched.ByName("FCFS", s.Sched)
		if err != nil {
			return streamStats{}, err
		}
		simulator, err := sim.New(sim.Options{
			NPU: s.NPU, Sched: s.Sched, Policy: policy,
		}, workload.Entries(tasks))
		if err != nil {
			return streamStats{}, err
		}
		res, err := simulator.Run()
		if err != nil {
			return streamStats{}, err
		}
		var sumLat float64
		for _, t := range res.Tasks {
			sumLat += s.NPU.Millis(t.Turnaround())
		}
		makespanSec := s.NPU.Seconds(res.Cycles)
		return streamStats{
			throughput: float64(len(res.Tasks)*batch) / makespanSec,
			latencyMS:  sumLat / float64(len(res.Tasks)),
		}, nil
	}

	// Each trial is independent (its own RNG stream), so trials fan out
	// through the engine; reduction stays in trial order.
	type trialStats struct {
		gn, rn, co streamStats
	}
	perTrial := make([]trialStats, trialsPerMx)
	err := s.ForEach(trialsPerMx, func(trial int) error {
		rng := workload.RNGFor(s.Seed^0xF161, trial)
		gn, err := makeStream(models[0], 0, rng)
		if err != nil {
			return err
		}
		rn, err := makeStream(models[1], 1000, rng)
		if err != nil {
			return err
		}
		g, err := run(gn)
		if err != nil {
			return err
		}
		r, err := run(rn)
		if err != nil {
			return err
		}
		// Co-located: both streams share one NPU.
		c, err := run(append(gn, rn...))
		if err != nil {
			return err
		}
		perTrial[trial] = trialStats{gn: g, rn: r, co: c}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var isoGN, isoRN, co streamStats
	for _, ts := range perTrial {
		isoGN.throughput += ts.gn.throughput / trialsPerMx
		isoGN.latencyMS += ts.gn.latencyMS / trialsPerMx
		isoRN.throughput += ts.rn.throughput / trialsPerMx
		isoRN.latencyMS += ts.rn.latencyMS / trialsPerMx
		co.throughput += ts.co.throughput / trialsPerMx
		co.latencyMS += ts.co.latencyMS / trialsPerMx
	}

	// Isolated aggregate: the two models each own the NPU half the
	// time (two separate deployments averaged, as Figure 1 plots them
	// side by side).
	isoThroughput := (isoGN.throughput + isoRN.throughput) / 2
	isoLatency := (isoGN.latencyMS + isoRN.latencyMS) / 2

	t := &Table{
		ID:    "fig1",
		Title: "Isolated vs co-located GoogLeNet+ResNet under NP-FCFS",
		Headers: []string{"configuration", "throughput (inf/s)", "avg latency (ms)",
			"throughput vs isolated", "latency vs isolated"},
		Note: "co-location improves throughput by ~51% while aggravating average latency by ~23%",
	}
	t.AddRow("Isolated GoogLeNet", fmt.Sprintf("%.0f", isoGN.throughput),
		fmt.Sprintf("%.2f", isoGN.latencyMS), "-", "-")
	t.AddRow("Isolated ResNet", fmt.Sprintf("%.0f", isoRN.throughput),
		fmt.Sprintf("%.2f", isoRN.latencyMS), "-", "-")
	t.AddRow("Isolated (mean)", fmt.Sprintf("%.0f", isoThroughput),
		fmt.Sprintf("%.2f", isoLatency), "1.00x", "1.00x")
	t.AddRow("Co-located", fmt.Sprintf("%.0f", co.throughput),
		fmt.Sprintf("%.2f", co.latencyMS),
		fmt.Sprintf("%.2fx", co.throughput/isoThroughput),
		fmt.Sprintf("%.2fx", co.latencyMS/isoLatency))
	return []*Table{t}, nil
}
