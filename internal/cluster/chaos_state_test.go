package cluster

// chaos_state_test.go pins down the State's failure semantics: the
// wipe-out guards (a node must always keep one routable backend, and
// routers must survive even a hand-built all-draining state), the
// reclaim contract (the in-flight count is the tail of the NPU's commit
// order, completed work stays completed), the freshness of post-failure
// scale-ups, and the LeastQueued head-cursor prune when a failed
// backend's horizons vanish mid-stream. The tests keep their own
// per-NPU commit lists: Fail answers a count, and the reclaimed
// requests are that many from the end of the list.

import (
	"math/rand/v2"
	"testing"

	"repro/internal/workload"
)

// TestFailGuards exercises Fail's error paths: unknown and repeated
// targets, and the last-active wipe-out guard.
func TestFailGuards(t *testing.T) {
	st := NewState(2)
	if _, err := st.Fail(99, 10); err == nil {
		t.Error("failure of unknown NPU should error")
	}
	if _, err := st.Fail(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Fail(0, 20); err == nil {
		t.Error("double failure should error")
	}
	if _, err := st.Fail(1, 20); err == nil {
		t.Error("failing the last active NPU should be refused")
	}
	if st.Active() != 1 {
		t.Errorf("active after failure = %d, want 1", st.Active())
	}
	if !st.Failed(0) || st.Routable(0) {
		t.Errorf("failed NPU still routable: failed=%v routable=%v", st.Failed(0), st.Routable(0))
	}
}

// TestCordonGuards exercises Cordon/Uncordon's error paths, including
// the last-active guard.
func TestCordonGuards(t *testing.T) {
	st := NewState(2)
	if err := st.Cordon(0); err != nil {
		t.Fatal(err)
	}
	if err := st.Cordon(0); err == nil {
		t.Error("double cordon should error")
	}
	if err := st.Cordon(1); err == nil {
		t.Error("cordoning the last active NPU should be refused")
	}
	if err := st.Retire(0); err == nil {
		t.Error("retiring a cordoned NPU should error")
	}
	if err := st.Uncordon(1); err == nil {
		t.Error("uncordoning a non-cordoned NPU should error")
	}
	if err := st.Uncordon(0); err != nil {
		t.Fatal(err)
	}
	if st.Active() != 2 {
		t.Errorf("active after uncordon = %d, want 2", st.Active())
	}
}

// TestRoutersSurviveAllDraining drives Decide over a hand-built state
// with no routable backend. The public API refuses to construct this
// (the wipe-out guards), but the routers' fallback must still answer a
// valid index rather than loop or panic — defense in depth for any
// future caller composing State transitions directly.
func TestRoutersSurviveAllDraining(t *testing.T) {
	for _, policy := range []RoutingPolicy{RoundRobin, LeastQueued, LeastWork} {
		router, err := NewRouter(policy)
		if err != nil {
			t.Fatal(err)
		}
		st := &State{
			freeAt:   make([]int64, 3),
			horizons: make([][]int64, 3),
			heads:    make([]int, 3),
			draining: []bool{true, true, true},
			cordoned: make([]bool, 3),
			failed:   make([]bool, 3),
			active:   0,
		}
		target := router.Decide(stateTask(0, 5, 10), st)
		if target < 0 || target >= 3 {
			t.Errorf("%v answered out-of-range target %d on an all-draining node", policy, target)
		}
	}
}

// TestFailReclaimSplitsAtNow: horizons drained by the failure instant
// stay completed, the rest is the tail of the commit order.
func TestFailReclaimSplitsAtNow(t *testing.T) {
	st := NewState(2)
	// Serial horizons on NPU 0: 40, 80, 120, 160.
	for i := 0; i < 4; i++ {
		st.Commit(0, stateTask(i, 0, 40))
	}
	inFlight, err := st.Fail(0, 90)
	if err != nil {
		t.Fatal(err)
	}
	// Horizons 40 and 80 had drained by 90; 120 and 160 were in flight:
	// the last two commits, tasks 2 and 3.
	if inFlight != 2 {
		t.Fatalf("Fail answered %d in flight, want 2 (tasks 2 and 3)", inFlight)
	}
	if st.FreeAt(0) != 0 {
		t.Errorf("failed backend keeps horizon %d", st.FreeAt(0))
	}
}

// TestFailReclaimPreservesArrivalOrder streams a seeded random workload
// through a router, fails one backend mid-stream, and checks that the
// requests whose horizons had not drained are exactly the last Fail
// answers of the NPU's commit order — which is arrival order, the
// invariant the serving layer's re-submission path depends on.
func TestFailReclaimPreservesArrivalOrder(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		rng := rand.New(rand.NewPCG(seed, 0))
		router, err := NewRouter(LeastWork)
		if err != nil {
			t.Fatal(err)
		}
		st := NewState(3)
		var now int64
		var committed []*workload.Task // tasks landing on NPU 1, in commit order
		var horizons []int64           // their fluid horizons
		for i := 0; i < 200; i++ {
			now += int64(rng.IntN(30))
			task := stateTask(i, now, int64(20+rng.IntN(100)))
			target := router.Decide(task, st)
			st.Commit(target, task)
			if target == 1 {
				committed = append(committed, task)
				horizons = append(horizons, st.FreeAt(1))
			}
		}
		inFlight, err := st.Fail(1, now/2)
		if err != nil {
			t.Fatal(err)
		}
		// The in-flight set must be a suffix of the commit order: fluid
		// horizons drain in commit order, so the completed prefix is cut
		// and the rest keeps its relative (arrival) order.
		if inFlight == 0 {
			t.Fatalf("seed %d: nothing in flight at half-stream", seed)
		}
		cut := len(committed) - inFlight
		for i, h := range horizons {
			if (h > now/2) != (i >= cut) {
				t.Fatalf("seed %d: commit %d (horizon %d) on the wrong side of the %d-request tail at %d",
					seed, i, h, inFlight, now/2)
			}
		}
		reclaimed := committed[cut:]
		for i := 1; i < len(reclaimed); i++ {
			if reclaimed[i].Arrival < reclaimed[i-1].Arrival {
				t.Fatalf("seed %d: reclaimed arrivals decrease at %d", seed, i)
			}
		}
	}
}

// TestAddNPUAfterFailureIsFresh: a scale-up after a failure must not
// inherit anything from the failed slot — zero horizon, no in-flight
// work, routable immediately.
func TestAddNPUAfterFailureIsFresh(t *testing.T) {
	st := NewState(2)
	for i := 0; i < 5; i++ {
		st.Commit(0, stateTask(i, int64(i*10), 50))
	}
	if _, err := st.Fail(0, 60); err != nil {
		t.Fatal(err)
	}
	fresh := st.AddNPUWithSpeed(1)
	if fresh != 2 {
		t.Fatalf("AddNPUWithSpeed appended index %d, want 2 (failed slots are never reused)", fresh)
	}
	if st.FreeAt(fresh) != 0 || st.InFlight(fresh, 1<<40) != 0 {
		t.Errorf("fresh backend carries state: freeAt=%d", st.FreeAt(fresh))
	}
	if !st.Routable(fresh) {
		t.Error("fresh backend not routable")
	}
	if st.Active() != 2 {
		t.Errorf("active = %d, want 2 (survivor plus scale-up)", st.Active())
	}
	// The fresh slot counts its own work: commit then fail it and the
	// one request comes back.
	st.Commit(fresh, stateTask(99, 200, 40))
	inFlight, err := st.Fail(fresh, 200)
	if err != nil {
		t.Fatal(err)
	}
	if inFlight != 1 {
		t.Fatalf("fresh slot answered %d in flight, want 1", inFlight)
	}
}

// TestLeastQueuedPruneAcrossFailure checks the head-cursor in-flight
// count against a naive recount while a backend fails mid-stream (its
// horizons vanish) and the stream keeps long enough to trigger the
// compaction path on the survivors.
func TestLeastQueuedPruneAcrossFailure(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	router, err := NewRouter(LeastQueued)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(3)
	// naive mirrors every commit per NPU and recounts from scratch.
	naive := make([][]int64, 3)
	naiveCount := func(i int, now int64) int {
		n := 0
		for _, h := range naive[i] {
			if h > now {
				n++
			}
		}
		return n
	}
	commit := func(target int, task *workload.Task) {
		start := st.FreeAt(target) // capture before Commit advances it
		if task.Arrival > start {
			start = task.Arrival
		}
		st.Commit(target, task)
		naive[target] = append(naive[target], start+task.EstimatedCycles)
	}
	var now int64
	failed := false
	for i := 0; i < 600; i++ {
		now += int64(rng.IntN(8))
		if !failed && i == 300 {
			if _, err := st.Fail(1, now); err != nil {
				t.Fatal(err)
			}
			naive[1] = nil
			failed = true
		}
		task := stateTask(i, now, int64(10+rng.IntN(60)))
		target := router.Decide(task, st)
		if target == 1 && failed {
			t.Fatalf("request %d routed to the failed NPU", i)
		}
		commit(target, task)
		for npu := 0; npu < 3; npu++ {
			if npu == 1 && failed {
				continue
			}
			if got, want := st.InFlight(npu, now), naiveCount(npu, now); got != want {
				t.Fatalf("request %d: InFlight(%d) = %d, naive recount %d", i, npu, got, want)
			}
		}
	}
	if !failed {
		t.Fatal("failure never injected")
	}
}
