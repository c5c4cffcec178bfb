package exp

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/serving"
	"repro/internal/workload"
)

// This file registers the node-level streaming experiment: the
// closed-loop concurrency sweep over a multi-NPU node session, the
// serving-system view of the Section II-C deployment model. Where
// loadcurve sweeps open-loop offered load (arrivals ignore completions,
// queues grow without bound past saturation), closedloop sweeps the
// client population — each client keeps one request in flight — so the
// curve bends instead of exploding: throughput flattens at node
// capacity while latency keeps climbing with concurrency.

func init() {
	register(Experiment{
		ID:    "closedloop",
		Title: "Closed-loop concurrency sweep over a 2-NPU node (clients vs latency/throughput)",
		Run:   runClosedLoop,
	})
}

// closedCell is one (clients x local scheduler) cell of the sweep.
type closedCell struct {
	clients int
	local   SchedulerConfig
}

// runClosedLoop sweeps the closed-loop client population on a 2-NPU
// least-work node for the NP-FCFS and Dynamic-PREMA local schedulers.
// Every (cell x run) pair fans out through the engine's worker pool;
// per-cell reduction happens in run order afterwards, so output is
// independent of scheduling.
func runClosedLoop(s *Suite) ([]*Table, error) {
	const (
		npus    = 2
		think   = 2 * time.Millisecond
		horizon = 250 * time.Millisecond
		runs    = 4
	)
	t := &Table{
		ID:    "closedloop",
		Title: "2-NPU node, closed-loop clients (2ms think): throughput and latency vs concurrency",
		Headers: []string{"clients", "local scheduler", "req/s", "mean lat (ms)",
			"p99 lat (ms)", "SLA viol.@4x"},
		Note: "closed loops self-limit: throughput saturates at node capacity while latency keeps climbing",
	}
	locals := []SchedulerConfig{NP("FCFS"), DynamicCkpt("PREMA")}
	var cells []closedCell
	for _, clients := range []int{1, 4, 16, 64} {
		for _, local := range locals {
			cells = append(cells, closedCell{clients: clients, local: local})
		}
	}

	results := make([]serving.NodeStats, len(cells)*runs)
	err := s.ForEach(len(results), func(i int) error {
		cell := cells[i/runs]
		srv := serving.NewServer(s.NPU, s.Sched, s.Gen)
		ns, err := srv.OpenNode(serving.NodeConfig{
			NPUs:    npus,
			Routing: cluster.LeastWork,
			Session: serving.SessionConfig{
				Policy:     cell.local.Policy,
				Preemptive: cell.local.Preemptive,
				Selector:   cell.local.Selector,
				Horizon:    horizon,
			},
		})
		if err != nil {
			return err
		}
		if _, err := ns.OfferClients(serving.ClientSpec{
			Clients: cell.clients, Think: think, Horizon: horizon,
		}, workload.RNGFor(s.Seed^0xC705, i)); err != nil {
			return err
		}
		st, err := ns.Drain()
		if err != nil {
			return err
		}
		results[i] = st
		return ns.Close()
	})
	if err != nil {
		return nil, err
	}

	for ci, cell := range cells {
		var thr, lat, p99, sla float64
		for r := 0; r < runs; r++ {
			st := results[ci*runs+r]
			thr += st.ThroughputPerSec / runs
			lat += st.MeanLatencyMS / runs
			p99 += st.P99LatencyMS / runs
			sla += st.SLAViolations4x / runs
		}
		t.AddRow(fmt.Sprintf("%d", cell.clients), cell.local.Label,
			fmt.Sprintf("%.0f", thr),
			fmt.Sprintf("%.2f", lat),
			fmt.Sprintf("%.2f", p99),
			fmt.Sprintf("%.1f%%", sla*100))
	}
	return []*Table{t}, nil
}
