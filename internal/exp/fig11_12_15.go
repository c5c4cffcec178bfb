package exp

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Non-preemptive scheduling policies: ANTT, fairness, STP vs NP-FCFS",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Preemptive policies, static CHECKPOINT vs dynamic (Algorithm 3), vs NP-FCFS",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Sensitivity to CHECKPOINT vs KILL across static/dynamic configurations",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "oracle",
		Title: "PREMA's predictor vs an oracle with exact execution times (Section VI-D)",
		Run:   runOracle,
	})
}

// policyComparison runs a list of scheduler configurations over identical
// workloads — all (configuration x run) pairs fanned out through the
// engine — and tabulates ANTT/fairness/STP improvements versus the first
// configuration (the baseline).
func policyComparison(s *Suite, id, title, note string, cfgs []SchedulerConfig,
	spec workload.Spec) (*Table, []*MultiResult, error) {

	results, err := s.RunConfigs(cfgs, spec, s.Runs)
	if err != nil {
		return nil, nil, err
	}
	base := results[0].Agg
	t := &Table{
		ID:    id,
		Title: title,
		Headers: []string{"scheduler", "ANTT", "fairness", "STP",
			"ANTT imp.", "fairness imp.", "STP imp."},
		Note: note,
	}
	for _, r := range results {
		imp := metrics.Relative(r.Agg, base)
		t.AddRow(r.Config.Label,
			fmt.Sprintf("%.2f", r.Agg.ANTT),
			fmt.Sprintf("%.3f", r.Agg.Fairness),
			fmt.Sprintf("%.2f", r.Agg.STP),
			fmt.Sprintf("%.2fx", imp.ANTT),
			fmt.Sprintf("%.2fx", imp.Fairness),
			fmt.Sprintf("%.2fx", imp.STP))
	}
	return t, results, nil
}

// runFig11 regenerates Figure 11: the six schedulers on a non-preemptive
// NPU, isolating the value of the prediction model from preemption.
func runFig11(s *Suite) ([]*Table, error) {
	cfgs := []SchedulerConfig{
		NP("FCFS"), NP("RRB"), NP("HPF"), NP("TOKEN"), NP("SJF"), NP("PREMA"),
	}
	t, _, err := policyComparison(s, "fig11",
		"Non-preemptive schedulers (TOKEN/SJF/PREMA use the predictor)",
		"SJF achieves the best ANTT; PREMA reaches ~92% of SJF's ANTT while keeping fairness",
		cfgs, workload.Spec{Tasks: 8})
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// runFig12 regenerates Figure 12: preemption-enabled policies with the
// mechanism statically fixed to CHECKPOINT versus dynamically selected by
// Algorithm 3, all normalized to NP-FCFS.
func runFig12(s *Suite) ([]*Table, error) {
	cfgs := []SchedulerConfig{
		NP("FCFS"),
		StaticCkpt("HPF"), StaticCkpt("TOKEN"), StaticCkpt("SJF"), StaticCkpt("PREMA"),
		DynamicCkpt("HPF"), DynamicCkpt("TOKEN"), DynamicCkpt("SJF"), DynamicCkpt("PREMA"),
	}
	t, _, err := policyComparison(s, "fig12",
		"Preemptive static-CHECKPOINT vs dynamic (Algorithm 3), normalized to NP-FCFS",
		"PREMA + dynamic achieves ~7.8x ANTT, ~19.6x fairness, ~1.4x STP over NP-FCFS",
		cfgs, workload.Spec{Tasks: 8})
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// runFig15 regenerates Figure 15: the same configurations as Figure 12
// but with KILL as the saving mechanism, demonstrating CHECKPOINT's
// superior robustness.
func runFig15(s *Suite) ([]*Table, error) {
	cfgs := []SchedulerConfig{
		NP("FCFS"),
		StaticKill("HPF"), StaticKill("TOKEN"), StaticKill("SJF"), StaticKill("PREMA"),
		StaticCkpt("HPF"), StaticCkpt("TOKEN"), StaticCkpt("SJF"), StaticCkpt("PREMA"),
		DynamicKill("HPF"), DynamicKill("TOKEN"), DynamicKill("SJF"), DynamicKill("PREMA"),
		DynamicCkpt("HPF"), DynamicCkpt("TOKEN"), DynamicCkpt("SJF"), DynamicCkpt("PREMA"),
	}
	t, results, err := policyComparison(s, "fig15",
		"KILL vs CHECKPOINT sensitivity (normalized to NP-FCFS)",
		"CHECKPOINT achieves ~87%/24%/77% better ANTT/STP/fairness than KILL on average",
		cfgs, workload.Spec{Tasks: 8})
	if err != nil {
		return nil, err
	}
	// Summarize the KILL vs CHECKPOINT gap across the matched pairs.
	byLabel := map[string]*MultiResult{}
	for _, r := range results {
		byLabel[r.Config.Label] = r
	}
	var dANTT, dSTP, dFair float64
	var n float64
	for _, pol := range []string{"HPF", "TOKEN", "SJF", "PREMA"} {
		for _, pair := range [][2]string{
			{"Static-" + pol, "StaticKill-" + pol},
			{"Dynamic-" + pol, "DynamicKill-" + pol},
		} {
			ck, ki := byLabel[pair[0]], byLabel[pair[1]]
			if ck == nil || ki == nil {
				continue
			}
			dANTT += ki.Agg.ANTT / ck.Agg.ANTT
			dSTP += ck.Agg.STP / ki.Agg.STP
			dFair += ck.Agg.Fairness / ki.Agg.Fairness
			n++
		}
	}
	if n > 0 {
		t.Note += fmt.Sprintf("; measured CHECKPOINT/KILL: ANTT %.0f%%, STP %.0f%%, fairness %.0f%% better",
			(dANTT/n-1)*100, (dSTP/n-1)*100, (dFair/n-1)*100)
	}
	return []*Table{t}, nil
}

// runOracle regenerates the Section VI-D comparison: Dynamic-PREMA with
// the Algorithm 1 predictor versus an oracular PREMA fed exact execution
// times.
func runOracle(s *Suite) ([]*Table, error) {
	spec := workload.Spec{Tasks: 8}
	predicted, err := s.RunConfigs([]SchedulerConfig{NP("FCFS"), DynamicCkpt("PREMA")}, spec, s.Runs)
	if err != nil {
		return nil, err
	}
	base, pred := predicted[0], predicted[1]
	oracleSpec := spec
	oracleSpec.Estimator = workload.Oracle()
	oracle, err := s.RunMulti(DynamicCkpt("PREMA"), oracleSpec, s.Runs)
	if err != nil {
		return nil, err
	}

	slaAt := func(r *MultiResult, target float64) float64 {
		return metrics.SLAViolationRate(r.NTTs, target)
	}
	t := &Table{
		ID:    "oracle",
		Title: "PREMA (predicted lengths) vs oracular PREMA (exact lengths)",
		Headers: []string{"configuration", "ANTT", "STP", "fairness",
			"SLA viol.@4x", "SLA viol.@8x"},
		Note: "predicted PREMA reaches ~99% of oracle's STP/ANTT/SLA",
	}
	for _, row := range []struct {
		label string
		r     *MultiResult
	}{
		{"NP-FCFS", base},
		{"Dynamic-PREMA (predictor)", pred},
		{"Dynamic-PREMA (oracle)", oracle},
	} {
		t.AddRow(row.label,
			fmt.Sprintf("%.2f", row.r.Agg.ANTT),
			fmt.Sprintf("%.2f", row.r.Agg.STP),
			fmt.Sprintf("%.3f", row.r.Agg.Fairness),
			fmt.Sprintf("%.1f%%", slaAt(row.r, 4)*100),
			fmt.Sprintf("%.1f%%", slaAt(row.r, 8)*100))
	}
	t.AddRow("predictor/oracle ratio",
		fmt.Sprintf("%.1f%%", oracle.Agg.ANTT/pred.Agg.ANTT*100),
		fmt.Sprintf("%.1f%%", pred.Agg.STP/oracle.Agg.STP*100),
		fmt.Sprintf("%.1f%%", pred.Agg.Fairness/oracle.Agg.Fairness*100),
		"", "")
	return []*Table{t}, nil
}
