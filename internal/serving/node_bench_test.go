package serving

// node_bench_test.go tracks the streaming node session's hot path: the
// per-request submit cost (router decide + fluid commit + backend
// append) and the same path with an autoscaler attached — the delta
// between the two is the autoscale tick overhead bench.sh reports into
// BENCH_serving.json.

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// benchStream generates one dense arrival stream the submit benchmarks
// replay into fresh node sessions.
func benchStream(b *testing.B, s *Server, n int) []*workload.Task {
	b.Helper()
	spec := Spec{
		Horizon:     time.Duration(n) * 250 * time.Microsecond,
		OfferedLoad: 4.0,
		Models:      []string{"CNN-AN", "CNN-GN", "CNN-MN", "RNN-SA"},
		BatchSizes:  []int{1},
	}
	stream, err := s.Generate(spec, workload.RNGFor(0xBE7C4, 1))
	if err != nil {
		b.Fatal(err)
	}
	return stream
}

// submitAll opens one node per pass and streams every request through
// it; per-request cost is reported as ns/req.
func submitAll(b *testing.B, s *Server, cfg NodeConfig, stream []*workload.Task) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns, err := s.OpenNode(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range stream {
			if err := ns.Submit(t); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(stream)), "ns/req")
}

// BenchmarkNodeSessionSubmit measures the fixed-fleet submit path on a
// 4-NPU least-work node.
func BenchmarkNodeSessionSubmit(b *testing.B) {
	s := newServer(b)
	stream := benchStream(b, s, 2048)
	submitAll(b, s, NodeConfig{
		NPUs: 4, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "FCFS"},
	}, stream)
}

// BenchmarkNodeSessionSubmitAutoscale measures the same submit path
// with a queue-depth scaler ticking every 2ms. The fleet is pinned
// (MinNPUs == MaxNPUs == the baseline's size) so every tick evaluates
// but no scaling can apply: the difference to BenchmarkNodeSessionSubmit
// is purely the tick-evaluation overhead, not fleet-size effects.
func BenchmarkNodeSessionSubmitAutoscale(b *testing.B) {
	s := newServer(b)
	stream := benchStream(b, s, 2048)
	submitAll(b, s, NodeConfig{
		NPUs: 4, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "FCFS"},
		Autoscale: &AutoscaleConfig{Scaler: "queue-depth", SLO: 8 * time.Millisecond,
			MinNPUs: 4, MaxNPUs: 4},
	}, stream)
}

// BenchmarkNodeSessionSubmitTraced measures the fixed-fleet submit
// path with a telemetry handle attached: each request pays a trace-ID
// stamp plus two ring appends (submit + route events). The delta to
// BenchmarkNodeSessionSubmit is the tracing overhead the telemetry
// layer budgets at no more than 15% — bench.sh derives and records the
// ratio in BENCH_serving.json.
func BenchmarkNodeSessionSubmitTraced(b *testing.B) {
	s := newServer(b)
	stream := benchStream(b, s, 2048)
	// One long-lived Trace across every pass, exactly as a traced run
	// holds one for its whole stream: steady-state tracing cost is the
	// recording (ring writes, wrapping included), not the one-time ring
	// allocation.
	tr := telemetry.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns, err := s.OpenNode(NodeConfig{
			NPUs: 4, Routing: cluster.LeastWork,
			Session: SessionConfig{Policy: "FCFS"},
			Trace:   tr,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range stream {
			if err := ns.Submit(t); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(stream)), "ns/req")
}

// BenchmarkNodeSessionSubmitHetero measures the submit path on a
// weighted two-tier fleet (70% full-speed, 30% half-clock): the
// speed-aware least-work router weighs backends in normalized
// completion time, and every request landing on the slow tier has its
// factor recorded next to it. The difference to
// BenchmarkNodeSessionSubmit is the full heterogeneity cost per request.
func BenchmarkNodeSessionSubmitHetero(b *testing.B) {
	s := newServer(b)
	stream := benchStream(b, s, 2048)
	fleet, err := FleetFromTemplate(s.cfg, "70%:fast,30%:slow")
	if err != nil {
		b.Fatal(err)
	}
	submitAll(b, s, NodeConfig{
		NPUs: 4, Fleet: fleet, Routing: cluster.LeastWork,
		Session: SessionConfig{Policy: "FCFS"},
	}, stream)
}
