package cluster

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/workload"
)

// syntheticStream builds a routing-only task stream (arrival and
// estimated cycles are all the router reads) with heavy-tailed service
// times, sorted by arrival as Route orders it.
func syntheticStream(n int, seed uint64) []*workload.Task {
	rng := rand.New(rand.NewPCG(seed, 0x707E))
	tasks := make([]*workload.Task, n)
	var at int64
	for i := range tasks {
		at += int64(rng.ExpFloat64() * 50_000)
		est := int64(10_000 + rng.ExpFloat64()*500_000)
		tasks[i] = &workload.Task{ID: i, Arrival: at, EstimatedCycles: est}
	}
	return tasks
}

// naiveRoute is the pre-extraction reference router: the same fluid
// model with LeastQueued rescanning every previously routed request's
// completion horizon per arrival (O(n²) across the stream). The
// incremental Router must reproduce its buckets exactly.
func naiveRoute(opt Options, ordered []*workload.Task) [][]*workload.Task {
	buckets := make([][]*workload.Task, opt.NPUs)
	freeAt := make([]int64, opt.NPUs)
	queued := make([][]int64, opt.NPUs)
	rr := 0
	for _, t := range ordered {
		var target int
		switch opt.Routing {
		case RoundRobin:
			target = rr % opt.NPUs
			rr++
		case LeastQueued:
			best, bestN := 0, int(1<<30)
			for i := range queued {
				n := 0
				for _, done := range queued[i] {
					if done > t.Arrival {
						n++
					}
				}
				if n < bestN {
					best, bestN = i, n
				}
			}
			target = best
		case LeastWork:
			best, bestWork := 0, int64(1<<62)
			for i := range freeAt {
				backlog := freeAt[i] - t.Arrival
				if backlog < 0 {
					backlog = 0
				}
				if backlog < bestWork {
					best, bestWork = i, backlog
				}
			}
			target = best
		}
		buckets[target] = append(buckets[target], t)
		start := freeAt[target]
		if t.Arrival > start {
			start = t.Arrival
		}
		freeAt[target] = start + t.EstimatedCycles
		queued[target] = append(queued[target], freeAt[target])
	}
	return buckets
}

// TestRouterMatchesNaiveReference proves the extracted incremental
// Router reproduces the pre-extraction routing byte-for-byte: every
// bucket holds the same tasks in the same order, for every policy, node
// size, and several heavy-tailed streams — including the pruned
// LeastQueued path whose compaction must not change a single decision.
func TestRouterMatchesNaiveReference(t *testing.T) {
	for _, routing := range []RoutingPolicy{RoundRobin, LeastQueued, LeastWork} {
		for _, npus := range []int{1, 2, 3, 8} {
			for seed := uint64(0); seed < 3; seed++ {
				stream := syntheticStream(600, seed)
				opt := Options{NPUs: npus, Routing: routing}
				got, err := Route(opt, stream)
				if err != nil {
					t.Fatal(err)
				}
				want := naiveRoute(opt, stream)
				for i := range want {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("%v npus=%d seed=%d: NPU %d got %d tasks, want %d",
							routing, npus, seed, i, len(got[i]), len(want[i]))
					}
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("%v npus=%d seed=%d: NPU %d slot %d diverges (task %d vs %d)",
								routing, npus, seed, i, j, got[i][j].ID, want[i][j].ID)
						}
					}
				}
			}
		}
	}
}

// TestNewRouterRejectsUnknown covers the extraction's error path.
func TestNewRouterRejectsUnknown(t *testing.T) {
	if _, err := NewRouter(RoutingPolicy(42)); err == nil {
		t.Error("unknown routing policy should be rejected")
	}
}

// TestStateInFlightPrunes exercises the head-cursor drain directly: a
// horizon counts while undrained, stops counting once the clock passes
// it, and compaction keeps the count intact.
func TestStateInFlightPrunes(t *testing.T) {
	st := NewState(1)
	for i := 0; i < 200; i++ {
		st.Commit(0, &workload.Task{ID: i, Arrival: int64(i), EstimatedCycles: 10})
	}
	// Serial horizons end at 10, 20, ..., 2000: at cycle 995 the first
	// 99 are drained.
	if got := st.InFlight(0, 995); got != 101 {
		t.Errorf("in-flight at 995: got %d, want 101", got)
	}
	if got := st.InFlight(0, 2000); got != 0 {
		t.Errorf("in-flight at 2000: got %d, want 0", got)
	}
	// Fully drained state accepts new work.
	st.Commit(0, &workload.Task{ID: 200, Arrival: 3000, EstimatedCycles: 10})
	if got := st.InFlight(0, 3000); got != 1 {
		t.Errorf("in-flight after recommit: got %d, want 1", got)
	}
}

// BenchmarkRouteLeastQueued measures the pruned-horizon router; the
// Naive variant is the pre-extraction per-arrival rescan. The pruned
// path is O(n) across the stream, the naive one O(n²) — at 8k requests
// the gap is two orders of magnitude.
func BenchmarkRouteLeastQueued(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		stream := syntheticStream(n, 1)
		opt := Options{NPUs: 4, Routing: LeastQueued}
		b.Run(fmt.Sprintf("pruned-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Route(opt, stream); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("naive-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naiveRoute(opt, stream)
			}
		})
	}
}

// BenchmarkRouterDecide measures one incremental routing decision
// (Decide + Commit) per op, the unit cost every streamed request pays,
// across production fleet sizes; bench.sh tracks it into
// BENCH_serving.json. The offered load scales with the fleet
// (loadedStream), so every size is measured under pressure. The
// least-work-tiered variant runs the speed-aware multi-class decision
// on a 70/30 fast/slow fleet. BenchmarkRouterDecideScan (index_test.go)
// is the retained O(n) reference at the same sizes.
func BenchmarkRouterDecide(b *testing.B) {
	for _, npus := range []int{100, 1000, 10000} {
		stream := loadedStream(16384, 0xD0, npus)
		for _, tc := range []struct {
			name   string
			policy RoutingPolicy
			tiered bool
		}{
			{"round-robin", RoundRobin, false},
			{"least-queued", LeastQueued, false},
			{"least-work", LeastWork, false},
			{"least-work-tiered", LeastWork, true},
		} {
			b.Run(fmt.Sprintf("%s/npus=%d", tc.name, npus), func(b *testing.B) {
				router, err := NewRouter(tc.policy)
				if err != nil {
					b.Fatal(err)
				}
				st := benchFleetState(npus, tc.tiered)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % len(stream)
					if k == 0 && i > 0 {
						// Wrapping the stream would rewind the arrival
						// clock; restart the fluid state off the timer.
						b.StopTimer()
						if router, err = NewRouter(tc.policy); err != nil {
							b.Fatal(err)
						}
						st = benchFleetState(npus, tc.tiered)
						b.StartTimer()
					}
					t := stream[k]
					st.Commit(router.Decide(t, st), t)
				}
			})
		}
	}
}
