package sim

// live_test.go proves the resumable API against the offline loop. A
// random stream is split into admission chunks and advanced bound by
// bound; after every bound, Project must give each admitted task the
// completion cycle (and the run the makespan) of a fresh Run over the
// admitted prefix, and the live simulator's final Run must equal the
// offline Run over the whole stream field by field (its preemptions and
// timeline too, when the live simulator records them).

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/ckptmem"
	"repro/internal/npu"
	"repro/internal/preempt"
	"repro/internal/sched"
	"repro/internal/workload"
)

var (
	livePolicies  = []string{"FCFS", "RRB", "HPF", "TOKEN", "SJF", "PREMA"}
	liveSelectors = []string{"static-checkpoint", "static-kill", "static-drain",
		"static-kill-layer", "dynamic", "dynamic-kill", "dynamic-kill-layer"}
	liveModels = []string{"CNN-AN", "CNN-GN", "CNN-MN", "CNN-VN", "RNN-SA", "RNN-MT1"}
)

// liveTrial is one live-versus-offline case: a scheduler configuration,
// a stream sorted by arrival (IDs are stream indices), and an admission
// schedule. The live simulator advances to bounds[0], bounds[1], ... in
// turn; admit[i] is how many bounds it has passed when request i is
// admitted (0: given to New), which the schedule keeps at or before the
// request's arrival. Requests therefore need not be admitted in arrival
// order: one may arrive before a request admitted earlier.
type liveTrial struct {
	policy, selector string // selector "" runs non-preemptively
	// newPolicy, when set, builds the policy instead of the registry.
	newPolicy func(sched.Config) sched.Policy
	quantum   time.Duration
	// ckptMem, when positive, bounds the NPU's checkpoint memory (bytes),
	// so saves can spill to host memory.
	ckptMem int64
	// record sets Options.Record on the live simulator; offline runs
	// always record.
	record bool
	stream []*workload.Task
	bounds []int64
	admit  []int
}

func (tr liveTrial) String() string {
	return fmt.Sprintf("%s/%s q=%v mem=%d record=%v n=%d bounds=%v admit=%v",
		tr.policy, tr.selector, tr.quantum, tr.ckptMem, tr.record, len(tr.stream), tr.bounds, tr.admit)
}

// liveOptions builds fresh simulator options for the trial's
// configuration, recording as the trial's live simulator does.
func liveOptions(t testing.TB, cfg npu.Config, tr liveTrial) Options {
	t.Helper()
	scfg := sched.DefaultConfig()
	scfg.Quantum = tr.quantum
	var pol sched.Policy
	var err error
	if tr.newPolicy != nil {
		pol = tr.newPolicy(scfg)
	} else if pol, err = sched.ByName(tr.policy, scfg); err != nil {
		t.Fatal(err)
	}
	opt := Options{NPU: cfg, Sched: scfg, Policy: pol, Record: tr.record}
	if tr.ckptMem > 0 {
		mcfg := ckptmem.DefaultConfig()
		mcfg.NPUMemBytes = tr.ckptMem
		if opt.CkptMem, err = ckptmem.New(mcfg); err != nil {
			t.Fatal(err)
		}
	}
	if tr.selector != "" {
		opt.Preemptive = true
		if opt.Selector, err = sched.SelectorByName(tr.selector); err != nil {
			t.Fatal(err)
		}
	}
	return opt
}

// fresh materializes new scheduler entries for the given stream
// indices, IDs re-stamped with those indices (a simulation consumes its
// entries).
func fresh(stream []*workload.Task, idx []int) []*sched.Task {
	out := make([]*sched.Task, 0, len(idx))
	for _, i := range idx {
		t := stream[i]
		out = append(out, sched.NewTask(i, t.Model, t.Batch, t.Priority, t.Arrival,
			npu.NewExecution(t.Program), t.EstimatedCycles))
	}
	return out
}

// runOffline runs the given stream indices from cycle 0 on a fresh
// simulator, in that order, recording preemptions and the timeline.
func runOffline(t testing.TB, cfg npu.Config, tr liveTrial, idx []int) (*Result, error) {
	t.Helper()
	opt := liveOptions(t, cfg, tr)
	opt.Record = true
	s, err := New(opt, fresh(tr.stream, idx))
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

// offline runs the whole stream, a run that must succeed.
func offline(t testing.TB, cfg npu.Config, tr liveTrial) *Result {
	t.Helper()
	res, err := runOffline(t, cfg, tr, indices(len(tr.stream)))
	if err != nil {
		t.Fatalf("%v: offline run: %v", tr, err)
	}
	return res
}

// indices answers 0, 1, ..., n-1.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// liveSize caps a random trial: requests in the stream (before the
// save-window arrivals are added), their batch size, and bounds.
type liveSize struct{ tasks, batch, bounds int }

// newLiveTrial draws a trial. The stream is dense enough to queue and
// preempt, with idle gaps, runs of equal arrivals, and arrivals landing
// while a preemption completes its boundary and saves a checkpoint (the
// step that follows then runs a single cycle); one trial in four has a
// checkpoint memory small enough to spill. The bounds are drawn from the
// arrivals (a bound exactly at an arrival), random instants, and instants
// of the offline run inside checkpoint saves and just after dispatches
// (inside a restore, when the dispatch resumes a checkpointed task). Each
// request is admitted at its last legal moment, as a serving session
// admits it, or at a random earlier one. Half the trials record on the
// live simulator.
func newLiveTrial(t testing.TB, cfg npu.Config, gen *workload.Generator, rng *rand.Rand,
	policy, selector string, size liveSize) liveTrial {
	t.Helper()
	tr := liveTrial{
		policy: policy, selector: selector,
		quantum: time.Duration(50+rng.IntN(1951)) * time.Microsecond,
	}
	if rng.IntN(4) == 0 {
		tr.ckptMem = 1<<18 + rng.Int64N(4<<20)
	}
	n := 2 + rng.IntN(size.tasks-1)
	at := rng.Int64N(2) * rng.Int64N(100_000)
	for i := 0; i < n; i++ {
		if i > 0 {
			prev := tr.stream[i-1].IsolatedCycles
			switch rng.IntN(8) {
			case 0, 1: // a run of equal arrivals
			case 2: // an idle gap
				at += prev + rng.Int64N(2*prev+1)
			default:
				at += rng.Int64N(prev*2/3 + 1)
			}
		}
		tr.stream = append(tr.stream, liveInstance(t, gen, rng, at, size.batch))
	}

	// The wake that decides a preemption lies BoundaryCycles+SaveCycles
	// before the event's Cycle; a task arriving in between changes nothing
	// up to its arrival, so it lands inside that window in the new run too.
	for _, ev := range offline(t, cfg, tr).Preemptions {
		if w := ev.Cost.BoundaryCycles + ev.Cost.SaveCycles; w > 1 && rng.IntN(2) == 0 {
			tr.stream = append(tr.stream, liveInstance(t, gen, rng, ev.Cycle-1-rng.Int64N(w-1), size.batch))
		}
	}
	sort.SliceStable(tr.stream, func(i, j int) bool { return tr.stream[i].Arrival < tr.stream[j].Arrival })

	// Candidate bounds, the delicate instants of the offline run among
	// them: the NPU saves a checkpoint over [Cycle-SaveCycles, Cycle) of
	// each such event, and a dispatch that resumes a checkpointed task
	// restores first.
	res := offline(t, cfg, tr)
	var cands []int64
	for _, task := range tr.stream {
		cands = append(cands, task.Arrival, task.Arrival+rng.Int64N(res.Cycles+1))
	}
	for _, ev := range res.Preemptions {
		if ev.Cost.Mechanism == preempt.Checkpoint && ev.Cost.SaveCycles > 0 {
			cands = append(cands, ev.Cycle-1-rng.Int64N(ev.Cost.SaveCycles))
		}
	}
	for _, sp := range res.Timeline.Spans() {
		cands = append(cands, sp.Start+1+rng.Int64N(min(sp.Duration(), 2000)))
	}
	for k := 1 + rng.IntN(size.bounds); k > 0; k-- {
		tr.bounds = append(tr.bounds, cands[rng.IntN(len(cands))])
	}
	slices.Sort(tr.bounds)

	// Request i may join once the bounds passed so far are all at or
	// before its arrival; New takes at least the first request.
	tr.admit = make([]int, len(tr.stream))
	for i := 1; i < len(tr.stream); i++ {
		arrival := tr.stream[i].Arrival
		last := sort.Search(len(tr.bounds), func(k int) bool { return tr.bounds[k] > arrival })
		tr.admit[i] = last
		if rng.IntN(2) == 0 {
			tr.admit[i] = rng.IntN(last + 1)
		}
	}
	tr.record = rng.IntN(2) == 0
	return tr
}

// liveInstance draws one request of a random model, priority and batch
// (1, 4 or 16, up to maxBatch).
func liveInstance(t testing.TB, gen *workload.Generator, rng *rand.Rand, arrival int64, maxBatch int) *workload.Task {
	t.Helper()
	batch := min([]int{1, 1, 4, 16}[rng.IntN(4)], maxBatch)
	prio := sched.Priorities[rng.IntN(len(sched.Priorities))]
	inst, err := gen.InstanceByName(0, liveModels[rng.IntN(len(liveModels))], batch, prio, arrival, rng)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// checkLive replays the trial live and checks both properties.
func checkLive(t testing.TB, cfg npu.Config, tr liveTrial) {
	t.Helper()
	var admitted []int // stream indices in admission order
	admitAt := func(k int) []*sched.Task {
		from := len(admitted)
		for i, at := range tr.admit {
			if at == k {
				admitted = append(admitted, i)
			}
		}
		return fresh(tr.stream, admitted[from:])
	}
	live, err := New(liveOptions(t, cfg, tr), admitAt(0))
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range tr.bounds {
		if err := live.AdvanceTo(b); err != nil {
			t.Fatalf("%v: AdvanceTo(%d): %v", tr, b, err)
		}
		completion := make([]int64, len(tr.stream))
		for _, task := range live.Tasks() {
			completion[task.ID] = task.Completion
		}
		makespan, err := live.Project(func(task *sched.Task, now int64) {
			if completion[task.ID] >= 0 {
				t.Errorf("%v: bound %d: task %d projected after it finished live", tr, b, task.ID)
			}
			completion[task.ID] = now
		})
		// A set whose offline run fails (a policy that schedules nothing
		// with no later arrival) must fail to project too.
		want, wantErr := runOffline(t, cfg, tr, admitted)
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("%v: bound %d: Project succeeded, offline run failed: %v", tr, b, wantErr)
		case wantErr != nil:
		case err != nil:
			t.Fatalf("%v: Project at bound %d: %v", tr, b, err)
		default:
			for _, task := range want.Tasks {
				if completion[task.ID] != task.Completion {
					t.Fatalf("%v: bound %d: task %d projected to complete at %d, offline run at %d",
						tr, b, task.ID, completion[task.ID], task.Completion)
				}
			}
			if makespan != want.Cycles {
				t.Fatalf("%v: bound %d: projected makespan %d, offline run %d", tr, b, makespan, want.Cycles)
			}
		}
		if err := live.Admit(admitAt(k + 1)...); err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
	}
	got, err := live.Run()
	if err != nil {
		t.Fatalf("%v: live Run: %v", tr, err)
	}
	want, err := runOffline(t, cfg, tr, admitted)
	if err != nil {
		t.Fatalf("%v: offline run: %v", tr, err)
	}
	if d := diffResults(got, want); d != "" {
		t.Fatalf("%v: live run diverges from offline: %s", tr, d)
	}
}

// diffResults describes the first difference between two results, field
// by field: every task's context-table entry, the preemption events and
// timeline spans where both results recorded them, the wake count and the
// makespan.
func diffResults(got, want *Result) string {
	if len(got.Tasks) != len(want.Tasks) {
		return fmt.Sprintf("%d tasks, want %d", len(got.Tasks), len(want.Tasks))
	}
	for i, g := range got.Tasks {
		w := want.Tasks[i]
		if g.ID != w.ID || g.Arrival != w.Arrival || g.Start != w.Start ||
			g.LastScheduled != w.LastScheduled || g.Completion != w.Completion ||
			g.Preemptions != w.Preemptions || g.CheckpointCycles != w.CheckpointCycles ||
			g.WastedCycles != w.WastedCycles || g.Waited != w.Waited || g.Token != w.Token ||
			g.State != w.State || g.Executed() != w.Executed() {
			return fmt.Sprintf("task %d: %+v, want %+v", i, *g, *w)
		}
	}
	if got.Timeline != nil && want.Timeline != nil {
		if !slices.Equal(got.Preemptions, want.Preemptions) {
			return fmt.Sprintf("preemptions %v, want %v", got.Preemptions, want.Preemptions)
		}
		if !slices.Equal(got.Timeline.Spans(), want.Timeline.Spans()) {
			return fmt.Sprintf("timeline %v, want %v", got.Timeline.Spans(), want.Timeline.Spans())
		}
	}
	if got.Wakes != want.Wakes || got.Cycles != want.Cycles {
		return fmt.Sprintf("wakes %d cycles %d, want %d and %d", got.Wakes, got.Cycles, want.Wakes, want.Cycles)
	}
	return ""
}

// TestLiveEqualsOffline sweeps every policy under every selector (and
// non-preemptively) with random streams and admission schedules.
func TestLiveEqualsOffline(t *testing.T) {
	cfg, _, gen := fixtures(t)
	rng := rand.New(rand.NewPCG(0x11FE, 0x0FF))
	trials, size := 4, liveSize{tasks: 16, batch: 16, bounds: 6}
	if testing.Short() {
		trials, size = 1, liveSize{tasks: 6, batch: 1, bounds: 3}
	}
	for _, policy := range livePolicies {
		for _, selector := range append([]string{""}, liveSelectors...) {
			for trial := 0; trial < trials; trial++ {
				checkLive(t, cfg, newLiveTrial(t, cfg, gen, rng, policy, selector, size))
			}
		}
	}
}

// TestLiveBoundInsideSaveWindow pins the case a checkpoint makes
// delicate: a bound falling while the victim's context is still being
// saved. The wake that decided the preemption lies before the bound, so
// it runs; the preempting task's first step begins past the bound and
// must not advance until the next call.
func TestLiveBoundInsideSaveWindow(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	tasks := twoTasks(t, gen, cfg) // long low-priority victim, short high-priority preemptor
	tr := liveTrial{policy: "HPF", selector: "static-checkpoint", quantum: scfg.Quantum,
		record: true, stream: tasks}
	res := offline(t, cfg, tr)
	if len(res.Preemptions) != 1 || res.Preemptions[0].Cost.SaveCycles < 2 {
		t.Fatalf("want one checkpoint preemption with a save window, got %+v", res.Preemptions)
	}
	ev := res.Preemptions[0]
	tr.bounds = []int64{tasks[1].Arrival, ev.Cycle - ev.Cost.SaveCycles/2, ev.Cycle, ev.Cycle + 1}
	tr.admit = []int{0, 1}
	checkLive(t, cfg, tr)
}

// lateStart is FCFS that schedules nothing before cycle from: a policy
// that leaves the NPU idle with work ready, driving the simulator's jump
// to the next arrival after a wake that scheduled nothing.
type lateStart struct {
	sched.FCFS
	from int64
}

func (p lateStart) Pick(ready []*sched.Task, current *sched.Task, now int64) sched.Decision {
	if now < p.from {
		return sched.Decision{}
	}
	return p.FCFS.Pick(ready, current, now)
}

// TestLiveHeldBackJump pins the jump after a wake that scheduled nothing:
// a bound holds it back, with and without a known next arrival, and the
// resumed jump must not wake the scheduler a second time at the same
// cycle.
func TestLiveHeldBackJump(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	rng := workload.RNGFor(0x1A7E, 1)
	var stream []*workload.Task
	for _, at := range []int64{0, 0, 40_000, 40_000, 90_000, 300_000} {
		stream = append(stream, liveInstance(t, gen, rng, at, 16))
	}
	tr := liveTrial{
		policy: "late-start", quantum: scfg.Quantum, stream: stream,
		newPolicy: func(sched.Config) sched.Policy { return lateStart{from: 60_000} },
		bounds:    []int64{10_000, 40_000, 40_000, 50_000, 90_000, 90_000},
		admit:     []int{0, 0, 2, 2, 5, 6},
	}
	checkLive(t, cfg, tr)
}

// TestLiveJumpsStopAtBound pins both jumps to the next arrival against a
// request admitted after the bound that arrives before the next known
// arrival: neither the idle jump nor the held-back jump may have crossed
// the bound, or the scheduler would first wake past the new arrival.
func TestLiveJumpsStopAtBound(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	rng := workload.RNGFor(0x1A7E, 2)
	first, err := gen.InstanceByName(0, "CNN-AN", 1, sched.Medium, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	iso := first.IsolatedCycles
	stream := []*workload.Task{first,
		liveInstance(t, gen, rng, 5*iso, 1), liveInstance(t, gen, rng, 10*iso, 1)}
	for _, tr := range []liveTrial{
		{policy: "FCFS", quantum: scfg.Quantum, stream: stream},
		{policy: "late-start", quantum: scfg.Quantum, stream: stream,
			newPolicy: func(sched.Config) sched.Policy { return lateStart{from: 4 * iso} }},
	} {
		// Request 2 is known from the start; request 1, arriving before
		// it, joins only once the simulator has stopped at 3*iso, with
		// the NPU idle (FCFS: request 0 is done) or holding request 0
		// back (late-start).
		tr.bounds = []int64{3 * iso, 10 * iso}
		tr.admit = []int{0, 1, 0}
		checkLive(t, cfg, tr)
	}
}

// TestAdvanceRunningSplitExact pins the pending-overhead split: a bound
// falling inside a context restore splits the step's budget, and the two
// halves must consume overhead and execution exactly as the whole does.
func TestAdvanceRunningSplitExact(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	task := twoTasks(t, gen, cfg)[0]
	rng := rand.New(rand.NewPCG(0x5917, 3))
	for trial := 0; trial < 500; trial++ {
		overhead := rng.Int64N(5000)
		a, b := rng.Int64N(2*overhead+2), rng.Int64N(2*overhead+2)
		var sims [2]*Sim
		for i := range sims {
			st := fresh([]*workload.Task{task}, []int{0})[0]
			st.PendingOverhead = overhead
			sims[i] = &Sim{opt: Options{NPU: cfg, Sched: scfg}, running: st}
		}
		got := sims[0].advanceRunning(a) + sims[0].advanceRunning(b)
		used := sims[1].advanceRunning(a + b)
		x, y := sims[0].running, sims[1].running
		if got != used || x.PendingOverhead != y.PendingOverhead || *x.Exec != *y.Exec {
			t.Fatalf("overhead %d: advanceRunning(%d)+(%d) used %d (overhead left %d, executed %d); whole used %d (%d, %d)",
				overhead, a, b, got, x.PendingOverhead, x.Executed(), used, y.PendingOverhead, y.Executed())
		}
	}
}

// TestAdmitRejectsArrivalBeforeBound covers the admission guard: a task
// arriving before the last bound would change events already run.
func TestAdmitRejectsArrivalBeforeBound(t *testing.T) {
	cfg, scfg, gen := fixtures(t)
	tasks := twoTasks(t, gen, cfg)
	tr := liveTrial{policy: "FCFS", quantum: scfg.Quantum, stream: tasks}
	s, err := New(liveOptions(t, cfg, tr), fresh(tasks, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(tasks[1].Arrival + 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Admit(fresh(tasks, []int{1})...); err == nil {
		t.Error("admitting an arrival before the bound should fail")
	}
	if err := s.AdvanceTo(tasks[1].Arrival); err == nil {
		t.Error("a decreasing bound should fail")
	}
}

// FuzzLiveEqualsOffline is the coverage-guided variant of
// TestLiveEqualsOffline: the fuzzer drives the stream and schedule seed
// and the configuration.
func FuzzLiveEqualsOffline(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(4), true)
	f.Add(uint64(0xB0D), uint8(0), uint8(0), false)
	f.Add(uint64(42), uint8(3), uint8(1), true)
	f.Add(uint64(7), uint8(2), uint8(3), true)
	f.Fuzz(func(t *testing.T, seed uint64, policyIdx, selectorIdx uint8, preemptive bool) {
		cfg, _, gen := fixtures(t)
		selector := ""
		if preemptive {
			selector = liveSelectors[int(selectorIdx)%len(liveSelectors)]
		}
		rng := rand.New(rand.NewPCG(seed, 0x11FE))
		checkLive(t, cfg, newLiveTrial(t, cfg, gen, rng,
			livePolicies[int(policyIdx)%len(livePolicies)], selector, liveSize{tasks: 12, batch: 16, bounds: 6}))
	})
}
