package cluster

// fail_fuzz_test.go keeps the work ledger State used to hold as the
// reference for Fail's in-flight count. The ledger remembered the task
// behind every fluid horizon, compacted in lockstep with the horizons at
// InFlight polls, and reclaimed from the live head at a failure. Fail
// now answers only how many requests were in flight; a caller reclaims
// that many from the end of its own per-NPU commit order.
// FuzzFailReclaim holds the two together under random commits at mixed
// speeds, polls, retire, cordon, uncordon, scale-up and failures; go
// test runs its seed corpus as a unit test.

import (
	"math/rand/v2"
	"testing"

	"repro/internal/workload"
)

// refLedger is the old ledger: per NPU, the committed horizons and their
// tasks (same index) from the head cursor on.
type refLedger struct {
	horizons [][]int64
	work     [][]*workload.Task
	heads    []int
}

func (r *refLedger) add() {
	r.horizons = append(r.horizons, nil)
	r.work = append(r.work, nil)
	r.heads = append(r.heads, 0)
}

func (r *refLedger) commit(i int, t *workload.Task, horizon int64) {
	r.horizons[i] = append(r.horizons[i], horizon)
	r.work[i] = append(r.work[i], t)
}

// inFlight is the old InFlight: advance the head past the horizons
// drained by now, and compact both slices once the drained prefix
// dominates.
func (r *refLedger) inFlight(i int, now int64) int {
	h, head := r.horizons[i], r.heads[i]
	for head < len(h) && h[head] <= now {
		head++
	}
	if head > 64 && head*2 >= len(h) {
		n := copy(h, h[head:])
		r.horizons[i] = h[:n]
		w := r.work[i]
		copy(w, w[head:])
		clear(w[n:])
		r.work[i] = w[:n]
		head = 0
	}
	r.heads[i] = head
	return len(r.horizons[i]) - head
}

// fail is the old Fail's reclaim: the tasks behind the horizons still
// queued at now, in commit order; the slot's ledger is wiped.
func (r *refLedger) fail(i int, now int64) []*workload.Task {
	h, head := r.horizons[i], r.heads[i]
	for head < len(h) && h[head] <= now {
		head++
	}
	out := append([]*workload.Task(nil), r.work[i][head:]...)
	r.horizons[i], r.work[i], r.heads[i] = nil, nil, 0
	return out
}

// fuzzSpeeds are the speed classes scale-ups draw from.
var fuzzSpeeds = []float64{1, 1.5, 2, 3}

func FuzzFailReclaim(f *testing.F) {
	// Two hand-written streams (arrivals, a poll, a failure; then
	// cordon, scale-up and two failures around a retire), then random
	// ones.
	f.Add(uint64(1), []byte{0x30, 0x04, 0x20, 0x0a, 0x20, 0x04})
	f.Add(uint64(2), []byte{0x20, 0x07, 0x20, 0x09, 0x0a, 0x10, 0x06, 0x00, 0x0a, 0x30, 0x08, 0x04, 0x00})
	for seed := uint64(3); seed <= 10; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xFA11))
		ops := make([]byte, 64)
		for i := range ops {
			ops[i] = byte(rng.IntN(256))
		}
		f.Add(seed, ops)
	}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		checkFailReclaim(t, seed, ops)
	})
}

// checkFailReclaim drives one State and the reference ledger through the
// operation stream ops, with magnitudes drawn from seed. A byte's low
// nibble selects the operation and its high nibble repeats it up to 15
// more times, so a short input (cheap for the fuzzer to minimize) still
// runs a long stream. The clock never moves backward, as the State
// requires.
func checkFailReclaim(t *testing.T, seed uint64, ops []byte) {
	rng := rand.New(rand.NewPCG(seed, 0x1ED6))
	router, err := NewRouter(RoutingPolicy(seed % 3))
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(0)
	ref := &refLedger{}
	var commits [][]*workload.Task // per NPU, every task ever committed
	add := func(speed float64) {
		st.AddNPUWithSpeed(speed)
		ref.add()
		commits = append(commits, nil)
	}
	for _, sp := range []float64{1, 2, 1.5} {
		add(sp)
	}
	var now int64
	id := 0
	commit := func(target int, task *workload.Task) {
		st.CommitCycles(target, task, scaled(task.EstimatedCycles, st.Speed(target)))
		ref.commit(target, task, st.FreeAt(target))
		commits[target] = append(commits[target], task)
	}
	route := func(task *workload.Task) {
		commit(router.Decide(task, st), task)
	}
	// live picks a random NPU that has not failed; -1 when none exists.
	live := func() int {
		for tries := 0; tries < 8; tries++ {
			if i := rng.IntN(st.NPUs()); !st.Failed(i) {
				return i
			}
		}
		for i := 0; i < st.NPUs(); i++ {
			if !st.Failed(i) {
				return i
			}
		}
		return -1
	}
	for step, b := range ops {
		for range 1 + int(b>>4) {
			switch b & 15 {
			case 3: // a commit the router did not choose (any NPU still alive)
				now += int64(rng.IntN(20_000))
				if i := live(); i >= 0 {
					commit(i, stateTask(id, now, 1_000+int64(rng.IntN(300_000))))
					id++
				}
			case 4, 5: // poll, which may compact
				now += int64(rng.IntN(50_000))
				if i := live(); i >= 0 {
					if got, want := st.InFlight(i, now), ref.inFlight(i, now); got != want {
						t.Fatalf("op %d: InFlight(%d, %d) = %d, ledger %d", step, i, now, got, want)
					}
				}
			case 6: // retire; the guards refuse invalid picks
				_ = st.Retire(rng.IntN(st.NPUs()))
			case 7:
				_ = st.Cordon(rng.IntN(st.NPUs()))
			case 8:
				_ = st.Uncordon(rng.IntN(st.NPUs()))
			case 9: // scale-up, keeping a handful of backends active
				if st.Active() < 6 && st.NPUs() < 128 {
					add(fuzzSpeeds[rng.IntN(len(fuzzSpeeds))])
				}
			case 10: // failure at a random later instant; reclaimed work re-routes
				now += int64(rng.IntN(60_000))
				i := rng.IntN(st.NPUs())
				wasFailed := st.Failed(i)
				inFlight, err := st.Fail(i, now)
				if err != nil {
					continue
				}
				if wasFailed {
					t.Fatalf("op %d: NPU %d failed twice", step, i)
				}
				want := ref.fail(i, now)
				if inFlight != len(want) {
					t.Fatalf("op %d: Fail(%d, %d) = %d in flight, ledger reclaims %d", step, i, now, inFlight, len(want))
				}
				tail := commits[i][len(commits[i])-inFlight:]
				for k := range want {
					if tail[k] != want[k] {
						t.Fatalf("op %d: reclaimed request %d of NPU %d is task %d, the commit tail's is %d",
							step, k, i, want[k].ID, tail[k].ID)
					}
				}
				for _, lost := range tail {
					route(stateTask(lost.ID, now, lost.EstimatedCycles))
				}
			default: // routed arrival
				now += int64(rng.ExpFloat64() * 30_000)
				route(stateTask(id, now, 1_000+int64(rng.ExpFloat64()*150_000)))
				id++
			}
		}
	}
}

// scaled is an estimate at speed× the nominal service time, as the
// serving layer commits it.
func scaled(est int64, speed float64) int64 {
	if speed == 1 {
		return est
	}
	return int64(float64(est) * speed)
}
