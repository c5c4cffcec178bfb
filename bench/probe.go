package main

// probe.go runs a traced run's layer probes: round 0's request stream
// is replayed through each layer on its own — model lookup, compilation,
// routing, simulation, the node session and telemetry export — with a
// span around each layer's calls. Every workload passes its requests
// through these layers, mostly from inside other layers the benchmark
// cannot time, so the probes report each layer's cost on the workload's
// own inputs; paper-sweep's engine generates its requests out of reach,
// so its probes run on a proxy stream.

import (
	"time"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/dnn"
	"repro/internal/npu"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// probe regenerates round 0's requests and records every probe metric
// into m. Unless the workload's stream is a proxy, the regenerated
// stream must hold as many requests as round 0 offered, so a change to
// how the system samples arrivals cannot leave the probes measuring
// other requests than the round's.
func (r *runner) probe(w *benchWorkload, m map[string]float64) error {
	stream, err := w.stream(r, r.input(0))
	if err != nil {
		return err
	}
	n := float64(len(stream))
	if err := r.check(len(stream) > 0, "%s: empty request stream", w.name); err != nil {
		return err
	}
	if err := r.check(w.proxy || len(stream) == r.requests,
		"%s: regenerated %d requests, round 0 offered %d", w.name, len(stream), r.requests); err != nil {
		return err
	}

	d, err := r.timed("dnn", "byname", func() error {
		for _, t := range stream {
			if _, err := dnn.ByName(t.Model); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["dnn.byname_ns"] = float64(d.Nanoseconds()) / n
	m["dnn.byname_calls"] = n

	// A fresh compiler compiles each distinct program of the stream
	// once, as the generator's program cache would.
	comp, err := compiler.New(npu.DefaultConfig())
	if err != nil {
		return err
	}
	type key struct {
		model           string
		batch, in, outs int
	}
	seen := map[key]bool{}
	var distinct []*workload.Task
	for _, t := range stream {
		k := key{t.Model, t.Batch, t.InLen, t.ActualOut}
		if !seen[k] {
			seen[k] = true
			distinct = append(distinct, t)
		}
	}
	instrs := 0
	if d, err = r.timed("compiler", "compile", func() error {
		for _, t := range distinct {
			p, err := comp.Compile(t.ModelRef, t.Batch, t.InLen, t.ActualOut)
			if err != nil {
				return err
			}
			instrs += len(p.Instrs)
		}
		return nil
	}); err != nil {
		return err
	}
	m["compiler.compile_ms"] = ms(d) / float64(len(distinct))
	m["compiler.programs"] = float64(len(distinct))
	m["compiler.program_mb"] = float64(instrs) * float64(unsafe.Sizeof(npu.Instr{})) / 1e6

	router, err := cluster.NewRouter(premaNode.Routing)
	if err != nil {
		return err
	}
	state := cluster.NewState(premaNode.NPUs)
	buckets := make([][]*workload.Task, premaNode.NPUs)
	if d, err = r.timed("cluster", "decide", func() error {
		for _, t := range stream {
			i := router.Decide(t, state)
			state.Commit(i, t)
			buckets[i] = append(buckets[i], t)
		}
		return nil
	}); err != nil {
		return err
	}
	m["cluster.decide_ns"] = float64(d.Nanoseconds()) / n
	m["cluster.decisions"] = n

	var simulated time.Duration
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		var res *sim.Result
		if d, err = r.timed("sim", "run", func() (err error) {
			res, err = simulate(b)
			return err
		}); err != nil {
			return err
		}
		simulated += d
		m["sim.tasks"] += float64(len(res.Tasks))
	}
	m["sim.run_ms"] = ms(simulated)

	// The node session probe polls Stats after every submitted batch, as
	// a dashboard does, then exports the session's trace.
	srv, err := newServer()
	if err != nil {
		return err
	}
	node := premaNode
	node.Trace = &telemetry.Trace{Tracer: telemetry.NewTracer(8 * len(stream))}
	ns, err := srv.OpenNode(node)
	if err != nil {
		return err
	}
	var submitted, polled time.Duration
	calls := 0
	for i := 0; i < len(stream); i += submitBatch {
		batch := stream[i:min(i+submitBatch, len(stream))]
		if d, err = r.timed("serving", "submit", func() error {
			for _, t := range batch {
				if err := ns.Submit(t); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		submitted += d
		if d, err = r.timed("serving", "stats", func() error {
			_, err := ns.Stats()
			return err
		}); err != nil {
			return err
		}
		polled += d
		calls++
	}
	m["serving.submit_ns"] = float64(submitted.Nanoseconds()) / n
	m["serving.stats_ms"] = ms(polled) / float64(calls)
	m["serving.stats_calls"] = float64(calls)

	var events []telemetry.Event
	if d, err = r.timed("telemetry", "encode", func() (err error) {
		if events, err = ns.TraceEvents(); err != nil {
			return err
		}
		_, err = telemetry.EncodeJSONL(events, nil)
		return err
	}); err != nil {
		return err
	}
	m["telemetry.encode_ms"] = ms(d)
	m["telemetry.events"] = float64(len(events))
	return r.call("serving", "close", ns.Close)
}

// simulate runs one backend's bucket on a fresh simulator under
// preemptive PREMA with the dynamic mechanism selector, from fresh
// scheduler entries.
func simulate(bucket []*workload.Task) (*sim.Result, error) {
	scfg := sched.DefaultConfig()
	policy, err := sched.ByName(premaNode.Session.Policy, scfg)
	if err != nil {
		return nil, err
	}
	selector, err := sched.SelectorByName(premaNode.Session.Selector)
	if err != nil {
		return nil, err
	}
	entries := make([]*sched.Task, len(bucket))
	for i, t := range bucket {
		entries[i] = sched.NewTask(i, t.Model, t.Batch, t.Priority, t.Arrival,
			npu.NewExecution(t.Program), t.EstimatedCycles)
	}
	s, err := sim.New(sim.Options{
		NPU: npu.DefaultConfig(), Sched: scfg,
		Policy: policy, Preemptive: true, Selector: selector,
	}, entries)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
