package cluster

// state_test.go tests the fluid State directly — InFlight/Backlog edge
// cases previously covered only indirectly through Route equivalence —
// plus the dynamic NPU set (AddNPUWithSpeed/Retire) the autoscaling
// node session drives.

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// stateTask builds a minimal routable task: the State only reads
// Arrival and EstimatedCycles.
func stateTask(id int, arrival, est int64) *workload.Task {
	return &workload.Task{Task: &sched.Task{ID: id, Arrival: arrival, EstimatedCycles: est}}
}

func TestStateEmpty(t *testing.T) {
	st := NewState(3)
	if st.NPUs() != 3 || st.Active() != 3 {
		t.Fatalf("fresh state reports %d NPUs / %d active", st.NPUs(), st.Active())
	}
	for i := 0; i < 3; i++ {
		if n := st.InFlight(i, 0); n != 0 {
			t.Errorf("idle NPU %d reports %d in flight", i, n)
		}
		if b := st.Backlog(i, 0); b != 0 {
			t.Errorf("idle NPU %d reports backlog %d", i, b)
		}
		if st.Draining(i) {
			t.Errorf("fresh NPU %d draining", i)
		}
		if f := st.FreeAt(i); f != 0 {
			t.Errorf("idle NPU %d free at %d", i, f)
		}
	}
	// Backlog clamps at zero even when now is far past an idle horizon.
	if b := st.Backlog(0, 1<<40); b != 0 {
		t.Errorf("backlog went negative: %d", b)
	}
}

func TestStateCommitAdvancesHorizon(t *testing.T) {
	st := NewState(2)
	st.Commit(0, stateTask(0, 100, 50))
	if f := st.FreeAt(0); f != 150 {
		t.Fatalf("free-at after commit = %d, want 150", f)
	}
	// A commit arriving before the horizon queues behind it.
	st.Commit(0, stateTask(1, 120, 30))
	if f := st.FreeAt(0); f != 180 {
		t.Fatalf("queued commit horizon = %d, want 180", f)
	}
	// A commit arriving after the horizon restarts from its arrival.
	st.Commit(1, stateTask(2, 500, 10))
	if f := st.FreeAt(1); f != 510 {
		t.Fatalf("idle-gap commit horizon = %d, want 510", f)
	}
	if n := st.InFlight(0, 140); n != 2 {
		t.Errorf("in flight mid-queue = %d, want 2", n)
	}
	if b := st.Backlog(0, 140); b != 40 {
		t.Errorf("backlog mid-queue = %d, want 40", b)
	}
}

// TestStateInFlightPastAllHorizons drains everything and checks the
// counters bottom out (and stay there for later now values).
func TestStateInFlightPastAllHorizons(t *testing.T) {
	st := NewState(1)
	var now int64
	for i := 0; i < 10; i++ {
		st.Commit(0, stateTask(i, now, 20))
		now += 20
	}
	if n := st.InFlight(0, now); n != 0 {
		t.Fatalf("in flight past all horizons = %d, want 0", n)
	}
	if n := st.InFlight(0, now+1000); n != 0 {
		t.Fatalf("in flight long after drain = %d, want 0", n)
	}
	if b := st.Backlog(0, now+1000); b != 0 {
		t.Fatalf("backlog long after drain = %d, want 0", b)
	}
}

// TestStateInFlightPostCompaction pushes the drained prefix past the
// compaction threshold and verifies counts stay exact across the
// in-place shift.
func TestStateInFlightPostCompaction(t *testing.T) {
	st := NewState(1)
	const total = 200
	for i := 0; i < total; i++ {
		st.Commit(0, stateTask(i, int64(i*10), 10))
	}
	// Drain 150 of the 200 horizons: head (150) > 64 and head*2 >= len
	// (300 >= 200), so the next InFlight compacts.
	if n := st.InFlight(0, 150*10); n != total-150 {
		t.Fatalf("pre-compaction in flight = %d, want %d", n, total-150)
	}
	if got := len(st.horizons[0]); got != total-150 {
		t.Fatalf("compaction kept %d horizons, want %d", got, total-150)
	}
	if st.heads[0] != 0 {
		t.Fatalf("compaction left head at %d", st.heads[0])
	}
	// Counts stay exact after the shift, including for later commits.
	st.Commit(0, stateTask(total, total*10, 10))
	if n := st.InFlight(0, 150*10); n != total-150+1 {
		t.Errorf("post-compaction in flight = %d, want %d", n, total-150+1)
	}
	if n := st.InFlight(0, (total+1)*10); n != 0 {
		t.Errorf("post-compaction full drain = %d, want 0", n)
	}
}

func TestStateAddAndRetire(t *testing.T) {
	st := NewState(1)
	if err := st.Retire(0); err == nil {
		t.Fatal("retiring the last active NPU should be refused")
	}
	idx := st.AddNPUWithSpeed(1)
	if idx != 1 || st.NPUs() != 2 || st.Active() != 2 {
		t.Fatalf("AddNPUWithSpeed -> index %d, %d NPUs, %d active", idx, st.NPUs(), st.Active())
	}
	st.Commit(idx, stateTask(0, 0, 100))
	if err := st.Retire(idx); err != nil {
		t.Fatal(err)
	}
	if !st.Draining(idx) || st.Active() != 1 {
		t.Fatalf("retired NPU not draining (active %d)", st.Active())
	}
	// Draining keeps the fluid horizons: the routed work still counts.
	if n := st.InFlight(idx, 50); n != 1 {
		t.Errorf("draining NPU lost its in-flight work (%d)", n)
	}
	if err := st.Retire(idx); err == nil {
		t.Error("double retire should error")
	}
	if err := st.Retire(99); err == nil {
		t.Error("retire of unknown NPU should error")
	}
	if err := st.Retire(0); err == nil {
		t.Error("retiring the last active NPU should be refused")
	}
}

// TestRoutersSkipDraining proves no router sends new work to a retired
// backend, while a fixed fleet (nothing draining) keeps the original
// decisions.
func TestRoutersSkipDraining(t *testing.T) {
	for _, policy := range []RoutingPolicy{RoundRobin, LeastQueued, LeastWork} {
		router, err := NewRouter(policy)
		if err != nil {
			t.Fatal(err)
		}
		st := NewState(3)
		if err := st.Retire(1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			task := stateTask(i, int64(i*5), 40)
			target := router.Decide(task, st)
			if target == 1 {
				t.Fatalf("%v routed to draining NPU 1 on request %d", policy, i)
			}
			st.Commit(target, task)
		}
	}
}

// TestRoundRobinResumesAddedNPU checks a scale-up joins the rotation:
// after AddNPUWithSpeed every active backend receives a share.
func TestRoundRobinResumesAddedNPU(t *testing.T) {
	router, err := NewRouter(RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(2)
	counts := make(map[int]int)
	for i := 0; i < 4; i++ {
		task := stateTask(i, int64(i), 10)
		target := router.Decide(task, st)
		counts[target]++
		st.Commit(target, task)
	}
	st.AddNPUWithSpeed(1)
	for i := 4; i < 10; i++ {
		task := stateTask(i, int64(i), 10)
		target := router.Decide(task, st)
		counts[target]++
		st.Commit(target, task)
	}
	if counts[2] == 0 {
		t.Errorf("added NPU never entered the rotation: %v", counts)
	}
}
