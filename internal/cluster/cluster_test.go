package cluster

import (
	"testing"

	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/workload"
)

func genTasks(t *testing.T, n, run int) []*workload.Task {
	t.Helper()
	gen, err := workload.NewGenerator(npu.DefaultConfig(), 0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := gen.Generate(workload.Spec{Tasks: n}, workload.RNGFor(0xC105, run))
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

func defaultOpts(npus int, routing RoutingPolicy) Options {
	return Options{
		NPUs: npus, Routing: routing,
		NPU: npu.DefaultConfig(), Sched: sched.DefaultConfig(),
		Local: sched.Spec{Policy: "PREMA", Preemptive: true, Selector: "dynamic"},
	}
}

func TestRoutePolicies(t *testing.T) {
	tasks := genTasks(t, 12, 1)
	for _, routing := range []RoutingPolicy{RoundRobin, LeastQueued, LeastWork} {
		buckets, err := Route(defaultOpts(3, routing), tasks)
		if err != nil {
			t.Fatal(err)
		}
		if len(buckets) != 3 {
			t.Fatalf("%v: %d buckets", routing, len(buckets))
		}
		total := 0
		for _, b := range buckets {
			total += len(b)
		}
		if total != 12 {
			t.Errorf("%v: routed %d of 12 tasks", routing, total)
		}
	}
}

func TestRoundRobinBalancesCounts(t *testing.T) {
	tasks := genTasks(t, 12, 2)
	buckets, err := Route(defaultOpts(4, RoundRobin), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range buckets {
		if len(b) != 3 {
			t.Errorf("NPU %d got %d tasks, want 3", i, len(b))
		}
	}
}

func TestLeastWorkBalancesBacklog(t *testing.T) {
	// All tasks arrive at once; least-work routing should spread the
	// estimated cycles far more evenly than round robin does when task
	// lengths differ wildly.
	gen, err := workload.NewGenerator(npu.DefaultConfig(), 0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	var tasks []*workload.Task
	models := []string{"RNN-MT2", "CNN-MN", "CNN-MN", "CNN-MN", "RNN-MT1", "CNN-GN", "CNN-GN", "CNN-GN"}
	for i, m := range models {
		task, err := gen.InstanceByName(i, m, 1, sched.Medium, 0, workload.RNGFor(3, i))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	imbalance := func(routing RoutingPolicy) float64 {
		buckets, err := Route(defaultOpts(2, routing), tasks)
		if err != nil {
			t.Fatal(err)
		}
		var w [2]float64
		for i, b := range buckets {
			for _, task := range b {
				w[i] += float64(task.EstimatedCycles)
			}
		}
		hi, lo := w[0], w[1]
		if lo > hi {
			hi, lo = lo, hi
		}
		if lo == 0 {
			return 1e9
		}
		return hi / lo
	}
	if lw, rr := imbalance(LeastWork), imbalance(RoundRobin); lw >= rr {
		t.Errorf("least-work imbalance %.2f should beat round robin %.2f", lw, rr)
	}
}

func TestRunValidation(t *testing.T) {
	tasks := genTasks(t, 4, 3)
	bad := defaultOpts(0, RoundRobin)
	if _, err := Run(bad, tasks); err == nil {
		t.Error("zero NPUs should be rejected")
	}
	badPolicy := defaultOpts(2, RoundRobin)
	badPolicy.Local.Policy = "NOPE"
	if _, err := Run(badPolicy, tasks); err == nil {
		t.Error("unknown local policy should be rejected")
	}
	badRoute := defaultOpts(2, RoutingPolicy(42))
	if _, err := Run(badRoute, tasks); err == nil {
		t.Error("unknown routing policy should be rejected")
	}
}

func TestRunCompletesEverything(t *testing.T) {
	tasks := genTasks(t, 16, 4)
	res, err := Run(defaultOpts(4, LeastWork), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 16 {
		t.Fatalf("completed %d of 16 tasks", len(res.Tasks))
	}
	for _, task := range res.Tasks {
		if task.Completion < 0 {
			t.Error("unfinished task in cluster result")
		}
	}
	if res.Metrics.ANTT < 1 {
		t.Errorf("cluster ANTT %v below 1", res.Metrics.ANTT)
	}
	used := 0
	for _, s := range res.PerNPU {
		used += s.Tasks
		if s.BusyFrac < 0 || s.BusyFrac > 1 {
			t.Errorf("busy fraction %v outside [0,1]", s.BusyFrac)
		}
	}
	if used != 16 {
		t.Errorf("per-NPU stats account for %d tasks", used)
	}
}

func TestMoreNPUsImproveLatency(t *testing.T) {
	// Scaling from 1 to 4 NPUs over the same 16-task offered load must
	// shrink ANTT substantially.
	antt := func(npus int) float64 {
		tasks := genTasks(t, 16, 5)
		res, err := Run(defaultOpts(npus, LeastWork), tasks)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.ANTT
	}
	one, four := antt(1), antt(4)
	if four >= one/1.5 {
		t.Errorf("4-NPU ANTT %.2f should be well below 1-NPU %.2f", four, one)
	}
}

func TestPREMAHelpsInsideCluster(t *testing.T) {
	// Even with a good router, the NPU-local scheduler still matters
	// under contention: PREMA should beat FCFS on ANTT at 2 NPUs.
	run := func(policy string, preemptive bool) float64 {
		opt := defaultOpts(2, LeastWork)
		opt.Local = sched.Spec{Policy: policy, Preemptive: preemptive}
		var sum float64
		const runs = 5
		for r := 0; r < runs; r++ {
			tasks := genTasks(t, 12, 100+r)
			res, err := Run(opt, tasks)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Metrics.ANTT / runs
		}
		return sum
	}
	fcfs := run("FCFS", false)
	prema := run("PREMA", true)
	if prema >= fcfs {
		t.Errorf("cluster-local PREMA ANTT %.2f should beat FCFS %.2f", prema, fcfs)
	}
}

func TestRoutingPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastQueued.String() != "least-queued" ||
		LeastWork.String() != "least-work" {
		t.Error("routing policy names wrong")
	}
	if RoutingPolicy(9).String() == "" {
		t.Error("unknown policy should render")
	}
}
