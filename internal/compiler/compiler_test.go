package compiler

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dnn"
	"repro/internal/npu"
)

func newCompiler(t *testing.T) *Compiler {
	t.Helper()
	c, err := New(npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := npu.DefaultConfig()
	cfg.SW = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad config should be rejected")
	}
}

func TestCompileRejectsBadInputs(t *testing.T) {
	c := newCompiler(t)
	if _, err := c.Compile(dnn.AlexNet(), 0, 0, 0); err == nil {
		t.Error("zero batch should be rejected")
	}
	empty := &dnn.Model{Name: "empty", Class: dnn.CNN}
	if _, err := c.Compile(empty, 1, 0, 0); err == nil {
		t.Error("empty model should be rejected")
	}
	body := []dnn.Layer{dnn.NewFC("fc", 8, 8, false)}
	negative := &dnn.Model{Name: "negative", Class: dnn.RNN,
		Unroll: func(in, out int) []dnn.Run { return []dnn.Run{{Body: body, Times: in}, {Body: body, Times: -1}} }}
	if _, err := c.Compile(negative, 1, 4, 0); err == nil {
		t.Error("a run repeated a negative number of times should be rejected")
	}
	sa, err := dnn.ByName("RNN-SA")
	if err != nil {
		t.Fatal(err)
	}
	// RNN-SA is two layers per input step plus a classifier.
	if _, err := c.Compile(sa, 1, npu.MaxLayers/2, 0); err != nil {
		t.Errorf("an instance of %d layers: %v", npu.MaxLayers, err)
	}
	if _, err := c.Compile(sa, 1, npu.MaxLayers/2+1, 0); err == nil {
		t.Error("an instance past npu.MaxLayers layers should be rejected")
	}
}

func TestCompiledProgramsValidate(t *testing.T) {
	c := newCompiler(t)
	for _, m := range dnn.Suite() {
		for _, b := range dnn.BatchSizes {
			inLen, outLen := 0, 0
			if m.IsRNN() {
				inLen, outLen = m.MinInLen, m.MinInLen
			}
			prog, err := c.Compile(m, b, inLen, outLen)
			if err != nil {
				t.Fatalf("%s b%d: %v", m.Name, b, err)
			}
			if err := prog.Validate(); err != nil {
				t.Errorf("%s b%d: %v", m.Name, b, err)
			}
			if prog.TotalCycles <= 0 || prog.TotalMACs <= 0 {
				t.Errorf("%s b%d: empty totals %d/%d", m.Name, b, prog.TotalCycles, prog.TotalMACs)
			}
		}
	}
}

func TestLatenciesLandInPaperBand(t *testing.T) {
	// Section IV-D: network-wide inference time is 0.5 to 45 ms across
	// the eight benchmarks. Allow modest slack at both ends.
	c := newCompiler(t)
	cfg := c.Config()
	for _, m := range dnn.Suite() {
		for _, b := range dnn.BatchSizes {
			inLen, outLen := 0, 0
			if m.IsRNN() {
				inLen = (m.MinInLen + m.MaxInLen) / 2
				outLen = inLen
				if m.SeqProfile == "mt-zh" {
					outLen = inLen * 11 / 2
				}
			}
			prog, err := c.Compile(m, b, inLen, outLen)
			if err != nil {
				t.Fatal(err)
			}
			ms := cfg.Millis(prog.TotalCycles)
			if ms < 0.2 || ms > 60 {
				t.Errorf("%s b%d: %.2f ms outside the plausible band", m.Name, b, ms)
			}
		}
	}
}

func TestTileTimeRegimes(t *testing.T) {
	cfg := npu.DefaultConfig()
	// Full inner tile: compute phase is ACC + SH + 2*SW.
	wantCompute := int64(cfg.ACC + cfg.SH + 2*cfg.SW)
	if got := TileTime(cfg, cfg.SH, cfg.ACC); got != wantCompute {
		t.Errorf("inner TileTime = %d, want compute-bound %d", got, wantCompute)
	}
	// Single-column tile (GEMV): pipeline fill dominates.
	if got := TileTime(cfg, cfg.SH, 1); got != int64(1+cfg.SH+2*cfg.SW) {
		t.Errorf("GEMV TileTime = %d", got)
	}
	// A memory-starved configuration must become bandwidth-bound.
	slow := cfg
	slow.MemBWBytesPerSec = 1e9
	got := TileTime(slow, slow.SH, slow.ACC)
	mem := slow.MemCycles(dnn.Bytes(int64(slow.SH*slow.SW) + int64(slow.SH*slow.ACC)))
	if got != mem {
		t.Errorf("slow-memory TileTime = %d, want memory-bound %d", got, mem)
	}
}

func TestTileTimeMonotonicInN(t *testing.T) {
	cfg := npu.DefaultConfig()
	prev := int64(0)
	for n := 1; n <= cfg.ACC; n *= 2 {
		got := TileTime(cfg, cfg.SH, n)
		if got < prev {
			t.Errorf("TileTime not monotone at n=%d: %d < %d", n, got, prev)
		}
		prev = got
	}
}

func TestBatchMonotonicity(t *testing.T) {
	c := newCompiler(t)
	for _, m := range dnn.Suite() {
		inLen, outLen := 0, 0
		if m.IsRNN() {
			inLen, outLen = m.MinInLen, m.MinInLen
		}
		var prev int64
		for _, b := range dnn.BatchSizes {
			prog, err := c.Compile(m, b, inLen, outLen)
			if err != nil {
				t.Fatal(err)
			}
			if prog.TotalCycles < prev {
				t.Errorf("%s: cycles decreased with batch (%d < %d)", m.Name, prog.TotalCycles, prev)
			}
			prev = prog.TotalCycles
		}
	}
}

func TestLiveBytesBoundedByUBUF(t *testing.T) {
	c := newCompiler(t)
	cfg := c.Config()
	for _, m := range dnn.Suite() {
		inLen, outLen := 0, 0
		if m.IsRNN() {
			inLen, outLen = m.MinInLen, m.MinInLen
		}
		prog, err := c.Compile(m, 16, inLen, outLen)
		if err != nil {
			t.Fatal(err)
		}
		if max := prog.MaxLiveBytes(); max > cfg.UBUFBytes {
			t.Errorf("%s: live bytes %d exceed UBUF %d", m.Name, max, cfg.UBUFBytes)
		}
	}
}

func TestLiveBytesGrowWithinLayer(t *testing.T) {
	// Within a single conv layer whose footprint fits UBUF, the
	// checkpointable state must be non-decreasing as tiles commit.
	c := newCompiler(t)
	model := &dnn.Model{Name: "single", Class: dnn.CNN, Static: []dnn.Layer{
		dnn.NewConv("c", 14, 14, 128, 128, 3, 1, 1),
	}}
	prog, err := c.Compile(model, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	for _, in := range prog.Instrs {
		if in.Op != npu.ConvOp {
			continue
		}
		if in.LiveBytes < prev {
			t.Fatalf("live bytes shrank mid-layer: %d -> %d", prev, in.LiveBytes)
		}
		prev = in.LiveBytes
	}
	if prev <= 0 {
		t.Fatal("no conv tiles emitted")
	}
}

func TestRNNProgramScalesWithOutLen(t *testing.T) {
	c := newCompiler(t)
	m, err := dnn.ByName("RNN-MT2")
	if err != nil {
		t.Fatal(err)
	}
	short, err := c.Compile(m, 1, 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	long, err := c.Compile(m, 1, 20, 200)
	if err != nil {
		t.Fatal(err)
	}
	if long.TotalCycles <= short.TotalCycles {
		t.Errorf("longer decode not slower: %d vs %d", long.TotalCycles, short.TotalCycles)
	}
	ratio := float64(long.TotalCycles) / float64(short.TotalCycles)
	if ratio < 3 {
		t.Errorf("decode scaling too weak: ratio %.2f for 10x output", ratio)
	}
}

func TestGEMMOpsAreCONVForConvLayers(t *testing.T) {
	c := newCompiler(t)
	prog, err := c.Compile(dnn.AlexNet(), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	opCount := map[npu.Op]int{}
	for _, in := range prog.Instrs {
		opCount[in.Op]++
	}
	if opCount[npu.ConvOp] == 0 {
		t.Error("AlexNet program has no CONV_OP instructions")
	}
	if opCount[npu.GEMMOp] == 0 {
		t.Error("AlexNet program has no GEMM_OP instructions (FC layers)")
	}
	if opCount[npu.LoadTile] == 0 {
		t.Error("no weight-preamble LOAD_TILE instructions")
	}
	if opCount[npu.VectorOp] == 0 {
		t.Error("no VECTOR_OP instructions (pools / fused activations)")
	}
}

func TestDepthwiseRoutedToVectorUnit(t *testing.T) {
	c := newCompiler(t)
	prog, err := c.Compile(dnn.MobileNet(), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	layers := dnn.MobileNet().Static
	for layer, in := range prog.Stream() {
		if layers[layer].Kind == dnn.DWConv && in.Op != npu.VectorOp {
			t.Fatalf("depthwise layer %s emitted %v", layers[layer].Name, in.Op)
		}
	}
}

// Property: compiling the same instance twice yields identical programs
// (the whole timing model is deterministic).
func TestCompileDeterministic(t *testing.T) {
	c := newCompiler(t)
	m := dnn.GoogLeNet()
	a, err := c.Compile(m, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Compile(m, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRun := func(x, y npu.Run) bool { return x.Times == y.Times && slices.Equal(x.Body, y.Body) }
	if a.TotalCycles != b.TotalCycles || !slices.Equal(a.Instrs, b.Instrs) ||
		!slices.EqualFunc(a.Runs, b.Runs, sameRun) {
		t.Fatal("compilation is not deterministic")
	}
}

// Property: random small conv layers compile to valid programs whose
// cycles are at least the ideal compute lower bound scaled by tiling.
func TestRandomConvCompileProperty(t *testing.T) {
	c := newCompiler(t)
	rng := rand.New(rand.NewPCG(2, 3))
	f := func() bool {
		hw := 4 + rng.IntN(60)
		k := 1 + 2*rng.IntN(3) // 1,3,5
		if k > hw {
			k = 1
		}
		l := dnn.NewConv("c", hw, hw, 1+rng.IntN(128), 1+rng.IntN(256), k, 1, k/2)
		m := &dnn.Model{Name: "r", Class: dnn.CNN, Static: []dnn.Layer{l}}
		prog, err := c.Compile(m, 1+rng.IntN(8), 0, 0)
		if err != nil {
			return false
		}
		return prog.Validate() == nil && prog.TotalCycles > 0
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
