package serving

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

func TestBatchingDisabledMatchesUnbatchedShape(t *testing.T) {
	s := newServer(t)
	bs := BatchSpec{Spec: Spec{Horizon: 300 * time.Millisecond, OfferedLoad: 0.5}}
	st, err := s.RunBatched(bs, sched.Spec{Policy: "FCFS"}, workload.RNGFor(11, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Dispatched != st.Requests {
		t.Errorf("window 0 should dispatch one task per request: %d vs %d",
			st.Dispatched, st.Requests)
	}
	if st.MeanBatch != 1 {
		t.Errorf("mean batch %v, want 1", st.MeanBatch)
	}
}

func TestBatchingCoalescesCNNRequests(t *testing.T) {
	s := newServer(t)
	bs := BatchSpec{
		Spec: Spec{Horizon: 300 * time.Millisecond, OfferedLoad: 0.7,
			Models: []string{"CNN-AN", "CNN-GN"}},
		Window: 4 * time.Millisecond,
	}
	st, err := s.RunBatched(bs, sched.Spec{Policy: "FCFS"}, workload.RNGFor(12, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Dispatched >= st.Requests {
		t.Errorf("batching should fuse requests: %d dispatched of %d", st.Dispatched, st.Requests)
	}
	if st.MeanBatch <= 1.2 {
		t.Errorf("mean batch %v too small for a 4ms window at 0.7 load", st.MeanBatch)
	}
}

func TestRNNsNeverBatch(t *testing.T) {
	s := newServer(t)
	bs := BatchSpec{
		Spec: Spec{Horizon: 200 * time.Millisecond, OfferedLoad: 0.6,
			Models: []string{"RNN-SA", "RNN-MT2"}},
		Window: 8 * time.Millisecond,
	}
	st, err := s.RunBatched(bs, sched.Spec{Policy: "FCFS"}, workload.RNGFor(13, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st.Dispatched != st.Requests {
		t.Errorf("RNN requests must pass through unbatched: %d vs %d",
			st.Dispatched, st.Requests)
	}
}

func TestBatchingRaisesThroughputUnderSaturation(t *testing.T) {
	// At an offered load the unbatched server cannot sustain, fusing
	// CNN requests recovers throughput (the Figure 1 co-location story
	// with batching instead of co-location).
	s := newServer(t)
	spec := Spec{Horizon: 300 * time.Millisecond, OfferedLoad: 1.6,
		Models: []string{"CNN-AN", "CNN-GN", "CNN-MN"}}
	unbatched, err := s.RunBatched(BatchSpec{Spec: spec},
		sched.Spec{Policy: "FCFS"}, workload.RNGFor(14, 4))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := s.RunBatched(BatchSpec{Spec: spec, Window: 4 * time.Millisecond},
		sched.Spec{Policy: "FCFS"}, workload.RNGFor(14, 4))
	if err != nil {
		t.Fatal(err)
	}
	if batched.ThroughputPerSec <= unbatched.ThroughputPerSec {
		t.Errorf("batched throughput %.0f/s should beat unbatched %.0f/s under overload",
			batched.ThroughputPerSec, unbatched.ThroughputPerSec)
	}
}

func TestBatchCapRespected(t *testing.T) {
	s := newServer(t)
	bs := BatchSpec{
		Spec: Spec{Horizon: 300 * time.Millisecond, OfferedLoad: 2.0,
			Models: []string{"CNN-MN"}},
		Window:   20 * time.Millisecond,
		MaxBatch: 4,
	}
	st, err := s.RunBatched(bs, sched.Spec{Policy: "FCFS"}, workload.RNGFor(15, 5))
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanBatch > 4 {
		t.Errorf("mean batch %v exceeds the cap of 4", st.MeanBatch)
	}
}

// TestBatchedPassThroughIsolated: on a window-0 stream every request
// passes through alone and is re-instanced — an RNN with newly drawn
// sequence lengths — so its member record's isolated time must be the
// IsolatedCycles of the entry simulated for it.
func TestBatchedPassThroughIsolated(t *testing.T) {
	s := newServer(t)
	bs := BatchSpec{Spec: Spec{Horizon: 200 * time.Millisecond, OfferedLoad: 0.6}}
	entries, members, err := s.batchStream(bs, workload.RNGFor(16, 6))
	if err != nil {
		t.Fatal(err)
	}
	rnns := 0
	for _, e := range entries {
		ms := members[e.ID]
		if len(ms) != 1 {
			t.Fatalf("entry %d carries %d members at window 0, want 1", e.ID, len(ms))
		}
		if ms[0].isolated != e.IsolatedCycles {
			t.Errorf("entry %d (%s): member isolated %d cycles, simulated entry %d",
				e.ID, e.Model, ms[0].isolated, e.IsolatedCycles)
		}
		if strings.HasPrefix(e.Model, "RNN") {
			rnns++
		}
	}
	if rnns == 0 {
		t.Fatal("stream holds no RNN request")
	}
}
