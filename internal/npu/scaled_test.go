package npu_test

// scaled_test.go pins a cursor running at a speed factor to a nominal
// cursor over the program with every instruction latency scaled by that
// factor. stretchProgram builds that program and is the reference.

import (
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"

	"repro/internal/compiler"
	"repro/internal/dnn"
	"repro/internal/npu"
	"repro/internal/sched"
)

// stretchProgram scales every instruction latency by factor (ceiling,
// so no instruction loses work to rounding) and rebuilds the totals. Only
// the pool is copied: the stretched program shares p's run table.
func stretchProgram(p *npu.Program, factor float64) *npu.Program {
	sp := &npu.Program{
		Model: p.Model, Batch: p.Batch,
		InLen: p.InLen, OutLen: p.OutLen,
		Instrs:    make([]npu.Instr, len(p.Instrs)),
		Runs:      p.Runs,
		TotalMACs: p.TotalMACs,
	}
	for i, in := range p.Instrs {
		in.Cycles = int32(math.Ceil(float64(in.Cycles) * factor))
		sp.Instrs[i] = in
	}
	for _, in := range sp.Stream() {
		sp.TotalCycles += int64(in.Cycles)
	}
	return sp
}

// zooPrograms compiles every zoo model at batch 1, 4 and 16, RNNs at
// their minimum, middle and maximum input length, on one compiler, so
// the programs of a (model, batch) share a block pool.
func zooPrograms(t testing.TB) []*npu.Program {
	t.Helper()
	c, err := compiler.New(npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out []*npu.Program
	for _, m := range dnn.All() {
		lens := []int{0}
		if m.IsRNN() {
			lens = []int{m.MinInLen, (m.MinInLen + m.MaxInLen) / 2, m.MaxInLen}
		}
		for _, b := range dnn.BatchSizes {
			for _, l := range lens {
				p, err := c.Compile(m, b, l, l)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, p)
			}
		}
	}
	return out
}

// checkScaled drives an execution of p at factor and one of p stretched
// by factor through the same random advances, rewinds and kills, and
// fails on the first observation where they differ. When layers, p's
// blocks in execution order, is given, the scaled total must also equal
// its stretched sum.
func checkScaled(t testing.TB, p *npu.Program, layers [][]npu.Instr, factor float64, rng *rand.Rand, steps int) {
	t.Helper()
	sp := stretchProgram(p, factor)
	e, r := npu.NewScaledExecution(p, factor), npu.NewExecution(sp)
	if got, want := e.TotalCycles(), sp.TotalCycles; got != want {
		t.Fatalf("%s x%v: TotalCycles = %d, stretched program %d", p.Model, factor, got, want)
	}
	if layers != nil {
		var want int64
		for _, block := range layers {
			for _, in := range block {
				want += int64(int32(math.Ceil(float64(in.Cycles) * factor)))
			}
		}
		if got := e.TotalCycles(); got != want {
			t.Fatalf("%s x%v: TotalCycles = %d, stretched layer list %d", p.Model, factor, got, want)
		}
	}
	got := sched.NewTask(0, p.Model, p.Batch, sched.Low, 0, e, 1)
	want := sched.NewTask(0, p.Model, p.Batch, sched.Low, 0, r, 1)
	if got.IsolatedCycles != want.IsolatedCycles {
		t.Fatalf("%s x%v: IsolatedCycles = %d, stretched program %d",
			p.Model, factor, got.IsolatedCycles, want.IsolatedCycles)
	}
	for step := 0; step < steps; step++ {
		op := rng.IntN(10)
		switch {
		case op < 6:
			// Small budgets land inside instructions; large ones cross
			// many layers of a long program.
			b := rng.Int64N(64)
			if rng.IntN(2) == 0 {
				b = rng.Int64N(max(sp.TotalCycles/8, 0) + 1)
			}
			if g, w := e.Advance(b), r.Advance(b); g != w {
				t.Fatalf("%s x%v step %d: Advance(%d) = %d, stretched %d", p.Model, factor, step, b, g, w)
			}
		case op < 8:
			if g, w := e.KillToLayerStart(), r.KillToLayerStart(); g != w {
				t.Fatalf("%s x%v step %d: KillToLayerStart = %d, stretched %d", p.Model, factor, step, g, w)
			}
		case op < 9:
			if g, w := e.Executed(), r.Executed(); g != w {
				t.Fatalf("%s x%v step %d: Kill discards %d, stretched %d", p.Model, factor, step, g, w)
			}
			e.Kill()
			r.Kill()
		default:
			if b := e.CyclesToBoundary(); b > 0 {
				e.Advance(b)
				r.Advance(b)
			}
		}
		if e.Done() != r.Done() || e.Executed() != r.Executed() ||
			e.Remaining() != r.Remaining() || e.Progress() != r.Progress() ||
			e.CyclesToBoundary() != r.CyclesToBoundary() ||
			e.LiveBytes() != r.LiveBytes() || e.CurrentLayer() != r.CurrentLayer() {
			t.Fatalf("%s x%v step %d: scaled (done=%v exec=%d rem=%d prog=%v bound=%d live=%d layer=%d) "+
				"!= stretched (done=%v exec=%d rem=%d prog=%v bound=%d live=%d layer=%d)",
				p.Model, factor, step,
				e.Done(), e.Executed(), e.Remaining(), e.Progress(), e.CyclesToBoundary(), e.LiveBytes(), e.CurrentLayer(),
				r.Done(), r.Executed(), r.Remaining(), r.Progress(), r.CyclesToBoundary(), r.LiveBytes(), r.CurrentLayer())
		}
	}
}

// scaledFactors are the tier and slowdown factors the node session uses
// (6 is a x3 slowdown on a half-clock tier) plus two random ones.
func scaledFactors(rng *rand.Rand) []float64 {
	return []float64{1, 1.5, 2, 3, 4, 6, 1 + 7*rng.Float64(), 1 + rng.Float64()}
}

func TestScaledExecutionMatchesStretchedZoo(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	for _, p := range zooPrograms(t) {
		for _, f := range scaledFactors(rng) {
			checkScaled(t, p, nil, f, rng, 40)
		}
	}
}

func TestScaledExecutionMatchesStretchedRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 2))
	for prog := 0; prog < 1000; prog++ {
		p, layers := npu.RandomProgram(rng)
		for _, f := range scaledFactors(rng) {
			checkScaled(t, p, layers, f, rng, 60)
		}
	}
}

// A scaled latency past the int32 range converts exactly as the
// stretched program's does.
func TestScaledExecutionOverflowMatchesStretched(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 3))
	p := &npu.Program{Model: "huge", Batch: 1}
	p.AppendLayer(npu.Instr{Op: npu.GEMMOp, Cycles: 100, LiveBytes: 1},
		npu.Instr{Op: npu.GEMMOp, Cycles: 1 << 30, LiveBytes: 2})
	p.AppendLayer(npu.Instr{Op: npu.VectorOp, Cycles: 50, LiveBytes: 3})
	for _, f := range []float64{2, 3, 2.5} {
		checkScaled(t, p, nil, f, rng, 40)
	}
}

func FuzzScaledExecution(f *testing.F) {
	for _, factor := range []float64{1, 1.5, 2, 3, 4, 6, 2.7182818} {
		f.Add(uint64(1), factor, uint8(0))
		f.Add(uint64(7), factor, uint8(200))
	}
	zoo := zooPrograms(f)
	f.Fuzz(func(t *testing.T, seed uint64, factor float64, which uint8) {
		if math.IsNaN(factor) || math.IsInf(factor, 0) {
			t.Skip()
		}
		// Speed factors are at least 1; keep scaled latencies far from
		// the int32 ceiling.
		factor = 1 + math.Mod(math.Abs(factor), 15)
		rng := rand.New(rand.NewPCG(seed, uint64(which)))
		p, layers := npu.RandomProgram(rng)
		if int(which) < len(zoo) {
			p, layers = zoo[which], nil
		}
		checkScaled(t, p, layers, factor, rng, 60)
	})
}

// An Execution stays in the 80-byte size class: the simulator copies
// every in-flight cursor on each projection.
func TestExecutionSize(t *testing.T) {
	if size := unsafe.Sizeof(npu.Execution{}); size > 80 {
		t.Errorf("npu.Execution is %d bytes, want at most 80", size)
	}
}
