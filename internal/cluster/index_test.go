package cluster

// index_test.go proves the indexed routers (index.go) decision-for-
// decision identical to the historic linear scans, which are retained
// here as references — the same pruned-vs-naive pattern router_test.go
// uses for the fluid horizons. The churn test drives both through
// random chaos events and autoscale-style add/retire sequences; the
// edge-case tests pin the index maintenance paths (fail-then-AddNPUWithSpeed
// slot freshness, cordon/uncordon re-insertion ordering, retire while a
// backend sits at a heap head).

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/workload"
)

// scanLeastQueued is the historic O(n) LeastQueued decision, retained
// as the identity reference for the indexed router.
func scanLeastQueued(t *workload.Task, st *State) int {
	best, bestN := 0, int(1<<30)
	for i := 0; i < st.NPUs(); i++ {
		if !st.Routable(i) {
			continue
		}
		if n := st.InFlight(i, t.Arrival); n < bestN {
			best, bestN = i, n
		}
	}
	return best
}

// scanLeastWorkBacklog is the historic O(n) LeastWork decision: least
// fluid backlog, ties to the lowest index. It is speed-blind, so it is
// the reference only on homogeneous fleets.
func scanLeastWorkBacklog(t *workload.Task, st *State) int {
	best, bestWork := 0, int64(1<<62)
	for i := 0; i < st.NPUs(); i++ {
		if !st.Routable(i) {
			continue
		}
		if w := st.Backlog(i, t.Arrival); w < bestWork {
			best, bestWork = i, w
		}
	}
	return best
}

// scanLeastWork is the O(n) normalized-completion-time scan the indexed
// work index must reproduce: backlog + estimate x speed, ties to the
// lowest index. On a homogeneous fleet the estimate term is the same
// constant for every backend, so it decides exactly like
// scanLeastWorkBacklog (the churn test asserts all three agree there).
func scanLeastWork(t *workload.Task, st *State) int {
	best, bestKey := -1, 0.0
	for i := 0; i < st.NPUs(); i++ {
		if !st.Routable(i) {
			continue
		}
		key := float64(st.Backlog(i, t.Arrival)) + float64(t.EstimatedCycles)*st.Speed(i)
		if best < 0 || key < bestKey {
			best, bestKey = i, key
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

func scanRouterFor(p RoutingPolicy) func(*workload.Task, *State) int {
	if p == LeastQueued {
		return scanLeastQueued
	}
	return scanLeastWork
}

// TestIndexedRoutersMatchScanUnderChurn drives the indexed router and
// the retained linear scan over one shared state through a long stream
// interleaved with chaos events (fail with reclaim re-routing, cordon,
// uncordon) and autoscale churn (AddNPUWithSpeed, retire), on homogeneous and
// tiered fleets, and requires every single decision to match.
func TestIndexedRoutersMatchScanUnderChurn(t *testing.T) {
	cases := []struct {
		name   string
		policy RoutingPolicy
		speeds []float64
	}{
		{"least-queued", LeastQueued, []float64{1}},
		{"least-queued-tiered", LeastQueued, []float64{1, 2, 1.5}},
		{"least-work", LeastWork, []float64{1}},
		{"least-work-tiered", LeastWork, []float64{1, 2, 1.5}},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				churnIdentity(t, tc.policy, tc.speeds, seed)
			})
		}
	}
}

func churnIdentity(t *testing.T, policy RoutingPolicy, speeds []float64, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xC4A05))
	st := NewState(0)
	for i := 0; i < 4; i++ {
		st.AddNPUWithSpeed(speeds[i%len(speeds)])
	}
	// commits is each NPU's commit order: a failure reclaims its tail.
	commits := make([][]*workload.Task, st.NPUs())
	indexed, err := NewRouter(policy)
	if err != nil {
		t.Fatal(err)
	}
	scan := scanRouterFor(policy)
	homogeneous := len(speeds) == 1 && speeds[0] == 1

	var now int64
	id := 0
	decide := func(task *workload.Task) {
		t.Helper()
		want := scan(task, st)
		if homogeneous && policy == LeastWork {
			if b := scanLeastWorkBacklog(task, st); b != want {
				t.Fatalf("task %d: normalized scan chose %d, historic backlog scan chose %d",
					task.ID, want, b)
			}
		}
		got := indexed.Decide(task, st)
		if got != want {
			t.Fatalf("task %d (arrival %d): indexed router chose %d, scan reference chose %d",
				task.ID, task.Arrival, got, want)
		}
		st.Commit(got, task)
		commits[got] = append(commits[got], task)
	}

	decisions := 0
	for step := 0; step < 5000; step++ {
		switch r := rng.IntN(100); {
		case r < 80: // arrival
			now += int64(rng.ExpFloat64() * 120_000)
			task := stateTask(id, now, 10_000+int64(rng.ExpFloat64()*400_000))
			id++
			decide(task)
			decisions++
		case r < 85: // autoscale up
			if st.NPUs() < 64 {
				st.AddNPUWithSpeed(speeds[rng.IntN(len(speeds))])
				commits = append(commits, nil)
			}
		case r < 90: // autoscale down (guards reject invalid picks)
			_ = st.Retire(rng.IntN(st.NPUs()))
		case r < 94:
			_ = st.Cordon(rng.IntN(st.NPUs()))
		case r < 97:
			_ = st.Uncordon(rng.IntN(st.NPUs()))
		default: // failure: reclaimed in-flight work re-routes at the failure instant
			i := rng.IntN(st.NPUs())
			if inFlight, err := st.Fail(i, now); err == nil {
				for _, lost := range commits[i][len(commits[i])-inFlight:] {
					decide(stateTask(lost.ID, now, lost.EstimatedCycles))
					decisions++
				}
			}
		}
	}
	if decisions < 3000 {
		t.Fatalf("churn produced only %d routing decisions", decisions)
	}
}

// TestIndexFailThenAddNPUSlotFreshness pins the epoch guard: drain
// events queued against a failed slot's old life must never corrupt the
// counters, and a fresh AddNPUWithSpeed slot starts empty and immediately wins.
func TestIndexFailThenAddNPUSlotFreshness(t *testing.T) {
	st := NewState(3)
	r, err := NewRouter(LeastQueued)
	if err != nil {
		t.Fatal(err)
	}
	// Two requests per backend, long horizons; commits is each NPU's
	// commit order.
	commits := make([][]*workload.Task, 3)
	for i := 0; i < 6; i++ {
		task := stateTask(i, 0, 1_000_000)
		target := r.Decide(task, st)
		st.Commit(target, task)
		commits[target] = append(commits[target], task)
	}
	inFlight, err := st.Fail(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inFlight != 2 {
		t.Fatalf("failing NPU 1 left %d tasks in flight, want 2", inFlight)
	}
	for _, lost := range commits[1][len(commits[1])-inFlight:] {
		task := stateTask(lost.ID, 0, lost.EstimatedCycles)
		target := r.Decide(task, st)
		if target == 1 {
			t.Fatal("reclaimed work re-routed onto the failed backend")
		}
		st.Commit(target, task)
	}
	fresh := st.AddNPUWithSpeed(1)
	task := stateTask(100, 0, 1_000_000)
	if got := r.Decide(task, st); got != fresh {
		t.Fatalf("after AddNPUWithSpeed the empty fresh slot should win, got %d want %d", got, fresh)
	}
	st.Commit(fresh, task)
	// Decide far past every horizon the failed slot ever queued: its
	// stale drain events are due now, and the epoch guard must drop
	// them instead of driving the dead slot's count negative.
	late := stateTask(101, 50_000_000, 1_000)
	if got := r.Decide(late, st); got != 0 {
		t.Fatalf("late decision chose %d, want 0 (all drained, lowest index)", got)
	}
	if c := st.qidx.count[1]; c != 0 {
		t.Fatalf("failed slot's count is %d after its stale drain events came due, want 0", c)
	}
}

// TestIndexCordonUncordonReinsertion pins re-insertion ordering: a
// backend whose work drained while it was cordoned re-enters the
// rotation with an accurate (zero) queue depth and the historic
// lowest-index tie rule.
func TestIndexCordonUncordonReinsertion(t *testing.T) {
	t.Run("least-queued", func(t *testing.T) {
		st := NewState(3)
		r, err := NewRouter(LeastQueued)
		if err != nil {
			t.Fatal(err)
		}
		// Prime the index, then shape the queues explicitly:
		// counts 0:2, 1:1 (short horizon), 2:3.
		first := stateTask(0, 0, 1_000)
		if got := r.Decide(first, st); got != 0 {
			t.Fatalf("first decision on an idle node chose %d, want 0", got)
		}
		st.Commit(0, first)
		st.Commit(0, stateTask(1, 0, 10_000_000))
		st.Commit(1, stateTask(2, 0, 1_000))
		st.Commit(2, stateTask(3, 0, 10_000_000))
		st.Commit(2, stateTask(4, 0, 10_000_000))
		st.Commit(2, stateTask(5, 0, 10_000_000))
		if err := st.Cordon(1); err != nil {
			t.Fatal(err)
		}
		if got := r.Decide(stateTask(6, 100, 10_000_000), st); got != 0 {
			t.Fatalf("with 1 cordoned the decision should fall to 0 (2 queued vs 3), got %d", got)
		}
		// Let backend 1's only request drain while it is out of
		// rotation, then return it: it must win with a zero count.
		if err := st.Uncordon(1); err != nil {
			t.Fatal(err)
		}
		if got := r.Decide(stateTask(7, 5_000, 10_000_000), st); got != 1 {
			t.Fatalf("uncordoned backend with drained queue should win, got %d", got)
		}
	})
	t.Run("least-work", func(t *testing.T) {
		st := NewState(3)
		r, err := NewRouter(LeastWork)
		if err != nil {
			t.Fatal(err)
		}
		first := stateTask(0, 0, 10_000_000)
		if got := r.Decide(first, st); got != 0 {
			t.Fatalf("first decision on an idle node chose %d, want 0", got)
		}
		st.Commit(0, first)
		st.Commit(1, stateTask(1, 0, 1_000))
		st.Commit(2, stateTask(2, 0, 1_000))
		if err := st.Cordon(1); err != nil {
			t.Fatal(err)
		}
		// Both 1 and 2 drain by now=5000; only 2 is routable.
		if got := r.Decide(stateTask(3, 5_000, 1_000), st); got != 2 {
			t.Fatalf("with 1 cordoned the idle decision should be 2, got %d", got)
		}
		if err := st.Uncordon(1); err != nil {
			t.Fatal(err)
		}
		// 1 and 2 are both idle again: the lowest-index tie rule must
		// hold across the re-insertion.
		if got := r.Decide(stateTask(4, 6_000, 1_000), st); got != 1 {
			t.Fatalf("after uncordon the idle tie should go to 1 (lowest index), got %d", got)
		}
	})
}

// TestIndexRetireWhileHead retires the backend currently sitting at a
// decision heap's root — the removal path that exercises sift-down from
// the top — and checks the rotation falls to the next-best backend.
func TestIndexRetireWhileHead(t *testing.T) {
	t.Run("least-queued", func(t *testing.T) {
		st := NewState(3)
		r, err := NewRouter(LeastQueued)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Decide(stateTask(0, 0, 1_000), st); got != 0 {
			t.Fatalf("idle node first decision chose %d, want 0", got)
		}
		// 0 is the heap head (count 0, lowest index); retire it.
		if err := st.Retire(0); err != nil {
			t.Fatal(err)
		}
		if got := r.Decide(stateTask(1, 0, 1_000), st); got != 1 {
			t.Fatalf("after retiring the head the decision should be 1, got %d", got)
		}
	})
	t.Run("least-work-busy-head", func(t *testing.T) {
		st := NewState(3)
		r, err := NewRouter(LeastWork)
		if err != nil {
			t.Fatal(err)
		}
		first := stateTask(0, 0, 100_000)
		if got := r.Decide(first, st); got != 0 {
			t.Fatalf("idle node first decision chose %d, want 0", got)
		}
		st.Commit(0, first)
		st.Commit(1, stateTask(1, 0, 200_000))
		st.Commit(2, stateTask(2, 0, 300_000))
		// At now=50_000 every backend is busy and 0 holds the least
		// backlog — the busy heap's root. Retire it mid-stream.
		if err := st.Retire(0); err != nil {
			t.Fatal(err)
		}
		if got := r.Decide(stateTask(3, 50_000, 1_000), st); got != 1 {
			t.Fatalf("after retiring the busy head the decision should be 1, got %d", got)
		}
	})
}

// loadedStream scales the synthetic stream's offered load with the
// fleet size (inter-arrival mean = mean service time / fleet) so the
// per-decision benchmarks measure a fleet under load, not an idle one.
func loadedStream(n int, seed uint64, npus int) []*workload.Task {
	rng := rand.New(rand.NewPCG(seed, 0x10AD))
	tasks := make([]*workload.Task, n)
	gap := 510_000.0 / float64(npus)
	var at int64
	for i := range tasks {
		at += int64(rng.ExpFloat64() * gap)
		tasks[i] = stateTask(i, at, 10_000+int64(rng.ExpFloat64()*500_000))
	}
	return tasks
}

func benchFleetState(npus int, tiered bool) *State {
	if !tiered {
		return NewState(npus)
	}
	st := NewState(0)
	for i := 0; i < npus; i++ {
		if i%10 < 7 {
			st.AddNPUWithSpeed(1)
		} else {
			st.AddNPUWithSpeed(2)
		}
	}
	return st
}

// BenchmarkRouterDecideScan measures the retained linear-scan reference
// at the same fleet sizes as BenchmarkRouterDecide: the O(n) per-
// decision cost the indexed routers replace.
func BenchmarkRouterDecideScan(b *testing.B) {
	for _, npus := range []int{100, 1000, 10000} {
		stream := loadedStream(16384, 0xD0, npus)
		for _, policy := range []RoutingPolicy{LeastQueued, LeastWork} {
			scan := scanRouterFor(policy)
			b.Run(fmt.Sprintf("%s/npus=%d", policy, npus), func(b *testing.B) {
				st := NewState(npus)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % len(stream)
					if k == 0 && i > 0 {
						b.StopTimer()
						st = NewState(npus)
						b.StartTimer()
					}
					t := stream[k]
					st.Commit(scan(t, st), t)
				}
			})
		}
	}
}
