package serving

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// TestLongSessionBytesPerRequest bounds the heap a long session keeps
// per request: a fixed 4-NPU PREMA node fed 20 ms open-loop segments at
// load 3.2, polled once per segment, up to 10k requests. A request keeps
// its record, its live simulator entry and its samples; a scheduler
// entry built alongside the record, which no simulation runs, pushes it
// well past the ceiling. The stream is generated once beforehand, so the
// programs it compiles are in the generator's cache before the
// measurement starts.
func TestLongSessionBytesPerRequest(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("10k-request session skipped in -short mode and under -race")
	}
	const (
		requests = 10_000
		ceiling  = 560 // bytes per request
		seed     = 0x10C
		seg      = 20 * time.Millisecond
	)
	s := newServer(t)
	spec := func(i int) Spec {
		return Spec{Horizon: seg, Offset: time.Duration(i) * seg, OfferedLoad: 3.2, BatchSizes: []int{1}}
	}
	rng := workload.RNGFor(seed, 0)
	for i, n := 0, 0; n < requests; i++ {
		tasks, err := s.Generate(spec(i), rng)
		if err != nil && !errors.Is(err, ErrNoArrivals) {
			t.Fatal(err)
		}
		n += len(tasks)
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	ns, err := s.OpenNode(NodeConfig{NPUs: 4, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "PREMA", Preemptive: true, Selector: "dynamic"}})
	if err != nil {
		t.Fatal(err)
	}
	rng = workload.RNGFor(seed, 0)
	before := live()
	for i := 0; ns.Pending() < requests; i++ {
		_, err := ns.Offer(spec(i), rng)
		if errors.Is(err, ErrNoArrivals) {
			continue // an empty segment adds nothing to poll
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ns.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	n := ns.Pending()
	perRequest := float64(live()-before) / float64(n)
	runtime.KeepAlive(ns)
	t.Logf("%d requests keep %.0f B each (ceiling %d B)", n, perRequest, ceiling)
	if perRequest > ceiling {
		t.Errorf("a %d-request session keeps %.0f B per request, above %d B", n, perRequest, ceiling)
	}
}
