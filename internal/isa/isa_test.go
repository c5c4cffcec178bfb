package isa

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"iter"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/compiler"
	"repro/internal/dnn"
	"repro/internal/npu"
)

func TestInstrRoundTrip(t *testing.T) {
	in := npu.Instr{Op: npu.ConvOp, Cycles: 123456, LiveBytes: 7 << 20}
	enc := EncodeInstr(42, in)
	layer, got, err := DecodeInstr(enc[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != in || layer != 42 {
		t.Errorf("round trip: layer %d %+v != layer 42 %+v", layer, got, in)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	in := npu.Instr{Op: npu.GEMMOp, Cycles: 100, LiveBytes: 4096}
	enc := EncodeInstr(1, in)
	enc[9] ^= 0xFF // corrupt the cycle field
	if _, _, err := DecodeInstr(enc[:]); err == nil {
		t.Error("corrupted instruction should fail its checksum")
	}
	if _, _, err := DecodeInstr(enc[:10]); err == nil {
		t.Error("short buffer should be rejected")
	}
	bad := EncodeInstr(0, npu.Instr{Op: npu.Op(99), Cycles: 1})
	if _, _, err := DecodeInstr(bad[:]); err == nil {
		t.Error("unknown opcode should be rejected")
	}
}

func TestProgramStreamRoundTrip(t *testing.T) {
	c, err := compiler.New(npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := c.Compile(dnn.AlexNet(), 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, prog); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalCycles != prog.TotalCycles {
		t.Errorf("total cycles %d != %d", loaded.TotalCycles, prog.TotalCycles)
	}
	if loaded.StreamLen() != prog.StreamLen() || loaded.Layers() != prog.Layers() {
		t.Fatalf("loaded %d instructions in %d layers, want %d in %d",
			loaded.StreamLen(), loaded.Layers(), prog.StreamLen(), prog.Layers())
	}
	for layer, block := range prog.Blocks() {
		if !slices.Equal(loaded.Block(layer), block) {
			t.Fatalf("layer %d differs", layer)
		}
	}
	// A loaded program executes identically.
	a, b := npu.NewExecution(prog), npu.NewExecution(loaded)
	for !a.Done() {
		ua, ub := a.Advance(10_000), b.Advance(10_000)
		if ua != ub {
			t.Fatal("loaded program executes differently")
		}
	}
	if !b.Done() {
		t.Fatal("loaded program did not finish in lockstep")
	}
}

func TestReadRejectsBadStreams(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("truncated header should be rejected")
	}
	var buf bytes.Buffer
	c, _ := compiler.New(npu.DefaultConfig())
	prog, _ := c.Compile(dnn.MobileNet(), 1, 0, 0)
	if err := Write(&buf, prog); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	bad := append([]byte(nil), raw...)
	copy(bad[0:4], "XXXX")
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic should be rejected")
	}
	trunc := raw[:len(raw)-5]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream should be rejected")
	}
}

func TestDisassembleCollapsesTileRuns(t *testing.T) {
	c, _ := compiler.New(npu.DefaultConfig())
	prog, _ := c.Compile(dnn.VGG16(), 1, 0, 0)
	var out strings.Builder
	if err := Disassemble(prog, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "CONV_OP") || !strings.Contains(text, "LOAD_TILE") {
		t.Error("disassembly missing mnemonics")
	}
	if !strings.Contains(text, "x") {
		t.Error("tile runs should be collapsed with repeat counts")
	}
	lines := strings.Count(text, "\n")
	if lines >= prog.StreamLen() {
		t.Errorf("disassembly (%d lines) should be far shorter than %d instructions",
			lines, prog.StreamLen())
	}
}

// compileMT2 compiles the RNN-MT2 instance the listing golden records:
// its unrolled timesteps share blocks, so the encoders must flatten.
func compileMT2(t testing.TB) *npu.Program {
	t.Helper()
	c, err := compiler.New(npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnn.ByName("RNN-MT2")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := c.Compile(m, 4, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Instrs) >= prog.StreamLen() {
		t.Fatalf("pool %d not smaller than stream %d: no shared blocks", len(prog.Instrs), prog.StreamLen())
	}
	return prog
}

// The listing and the binary encoding of a program whose layers share
// blocks are byte-identical to those recorded before programs shared
// blocks; a written-and-read program disassembles the same.
func TestSharedBlockEncodingGolden(t *testing.T) {
	prog := compileMT2(t)
	want, err := os.ReadFile("testdata/rnn-mt2-b4-in6-out9.lst")
	if err != nil {
		t.Fatal(err)
	}
	var lst bytes.Buffer
	if err := Disassemble(prog, &lst); err != nil {
		t.Fatal(err)
	}
	if lst.String() != string(want) {
		t.Errorf("listing changed:\n%s", lst.String())
	}
	var bin bytes.Buffer
	if err := Write(&bin, prog); err != nil {
		t.Fatal(err)
	}
	const wantBin = "701bddf80f9634cbd5e96a5894c11d84dcd2be1915c84646d2b35271edfeccee 128824"
	if got := fmt.Sprintf("%x %d", sha256.Sum256(bin.Bytes()), bin.Len()); got != wantBin {
		t.Errorf("encoding = %s, want %s", got, wantBin)
	}
	loaded, err := Read(&bin)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Model, loaded.Batch = prog.Model, prog.Batch
	var relst bytes.Buffer
	if err := Disassemble(loaded, &relst); err != nil {
		t.Fatal(err)
	}
	if relst.String() != string(want) {
		t.Error("read-back program disassembles differently")
	}
}

func TestReadRejectsBadLayerIndices(t *testing.T) {
	var buf bytes.Buffer
	p := &npu.Program{Model: "x", Batch: 1}
	p.AppendLayer(npu.Instr{Op: npu.GEMMOp, Cycles: 1})
	p.AppendLayer(npu.Instr{Op: npu.GEMMOp, Cycles: 1})
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	first := raw[headerSize : headerSize+instrSize]
	for _, layer := range []int{2, 1 << 30} {
		enc := EncodeInstr(layer, npu.Instr{Op: npu.GEMMOp, Cycles: 1})
		copy(first, enc[:]) // then layer 1
		if _, err := Read(bytes.NewReader(raw)); err == nil {
			t.Errorf("a stream naming layer %d, then layer 1, should be rejected", layer)
		}
	}
}

// stream encodes a header claiming count instructions of total cycles,
// followed by the given instructions, each tagged with its layer.
func stream(count uint32, total uint64, instrs ...layerInstr) []byte {
	var b bytes.Buffer
	var hdr [headerSize]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	binary.LittleEndian.PutUint32(hdr[6:10], count)
	for i := range 6 {
		hdr[10+i] = byte(total >> (8 * i))
	}
	b.Write(hdr[:])
	for _, li := range instrs {
		enc := EncodeInstr(li.layer, li.in)
		b.Write(enc[:])
	}
	return b.Bytes()
}

type layerInstr struct {
	layer int
	in    npu.Instr
}

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readBudget bounds the bytes Read may allocate for an input of n bytes:
// the buffered reader and error text, plus a fixed multiple of n.
func readBudget(n int) uint64 { return 16<<10 + 64*uint64(n) }

// A header's instruction count is a claim, not an allocation: a 40-byte
// stream claiming 2^32-1 instructions whose one instruction names layer
// 10,000,000 fails at EOF having allocated a few kilobytes, and a layer
// index that takes the layer count past the cursor's int32 range is
// rejected.
func TestReadAllocatesByBytesRead(t *testing.T) {
	gemm := npu.Instr{Op: npu.GEMMOp, Cycles: 1}
	far := stream(1<<32-1, 1, layerInstr{10_000_000, gemm})
	if len(far) != 40 {
		t.Fatalf("stream is %d bytes, want 40", len(far))
	}
	var err error
	if n := allocBytes(func() { _, err = Read(bytes.NewReader(far)) }); n > readBudget(len(far)) {
		t.Errorf("reading a %d-byte stream allocated %d B, budget %d", len(far), n, readBudget(len(far)))
	}
	if err == nil || !strings.Contains(err.Error(), "EOF") {
		t.Errorf("truncated stream: err = %v, want EOF", err)
	}

	// The same jump in a complete stream reads as one gap run.
	p, err := Read(bytes.NewReader(stream(1, 1, layerInstr{10_000_000, gemm})))
	if err != nil {
		t.Fatal(err)
	}
	if p.Layers() != 10_000_001 || p.StreamLen() != 1 || len(p.Runs) > 3 {
		t.Errorf("read %d layers, %d instructions in %d runs; want 10000001, 1 in at most 3",
			p.Layers(), p.StreamLen(), len(p.Runs))
	}
	if got := p.Block(10_000_000); !slices.Equal(got, []npu.Instr{gemm}) {
		t.Errorf("last layer holds %v", got)
	}

	for _, c := range []struct {
		layer int
		ok    bool
	}{{npu.MaxLayers - 1, true}, {npu.MaxLayers, false}, {1<<32 - 2, false}} {
		in := stream(1, 1, layerInstr{c.layer, gemm})
		var p *npu.Program
		if n := allocBytes(func() { p, err = Read(bytes.NewReader(in)) }); n > readBudget(len(in)) {
			t.Errorf("layer %d: allocated %d B, budget %d", c.layer, n, readBudget(len(in)))
		}
		if (err == nil) != c.ok {
			t.Errorf("layer %d: err = %v, want ok=%v", c.layer, err, c.ok)
		}
		if err == nil && p.Layers() != c.layer+1 {
			t.Errorf("layer %d: read %d layers", c.layer, p.Layers())
		}
	}
}

// Any input reads or errors without panicking, allocating at most a
// fixed multiple of its length; a program Read accepts writes back to a
// stream that reads as the same program.
func FuzzISARead(f *testing.F) {
	gemm := npu.Instr{Op: npu.GEMMOp, Cycles: 3, LiveBytes: 9}
	f.Add(stream(1<<32-1, 1, layerInstr{10_000_000, gemm}))
	f.Add(stream(1, 3, layerInstr{npu.MaxLayers - 1, gemm}))
	f.Add(stream(3, 9, layerInstr{0, gemm}, layerInstr{2, gemm}, layerInstr{2, gemm}))
	f.Add(stream(0, 0))
	var mt2 bytes.Buffer
	if err := Write(&mt2, compileMT2(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(mt2.Bytes()[:headerSize+40*instrSize])
	f.Add(mt2.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var p *npu.Program
		var err error
		if n := allocBytes(func() { p, err = Read(bytes.NewReader(data)) }); n > readBudget(len(data)) {
			t.Fatalf("reading %d bytes allocated %d B, budget %d", len(data), n, readBudget(len(data)))
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, p); err != nil {
			t.Fatalf("writing back an accepted program: %v", err)
		}
		q, err := Read(&buf)
		if err != nil {
			t.Fatalf("reading back a written program: %v", err)
		}
		if q.Layers() != p.Layers() || q.TotalCycles != p.TotalCycles {
			t.Fatalf("read back %d layers, %d cycles; want %d, %d", q.Layers(), q.TotalCycles, p.Layers(), p.TotalCycles)
		}
		next, stop := iter.Pull2(q.Stream())
		defer stop()
		for layer, in := range p.Stream() {
			if l, i, ok := next(); !ok || l != layer || i != in {
				t.Fatalf("read-back stream differs at layer %d", layer)
			}
		}
		if _, _, ok := next(); ok {
			t.Fatal("read-back stream is longer")
		}
	})
}

func TestParseOp(t *testing.T) {
	for _, op := range []npu.Op{npu.LoadTile, npu.GEMMOp, npu.ConvOp, npu.VectorOp, npu.StoreTile} {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Errorf("ParseOp(%s) = %v, %v", op, got, err)
		}
	}
	if _, err := ParseOp("  gemm_op "); err != nil {
		t.Error("mnemonics should parse case-insensitively with whitespace")
	}
	if _, err := ParseOp("NOP"); err == nil {
		t.Error("unknown mnemonic should error")
	}
}

// Property: every instruction the compiler can emit survives an
// encode/decode round trip.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(op uint8, layer int32, cycles int32, live int64) bool {
		in := npu.Instr{
			Op:        npu.Op(op % 5),
			Cycles:    abs32(cycles),
			LiveBytes: abs64(live),
		}
		enc := EncodeInstr(int(abs32(layer)), in)
		gotLayer, got, err := DecodeInstr(enc[:])
		return err == nil && got == in && gotLayer == int(abs32(layer))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		if v == -1<<31 {
			return 1<<31 - 1
		}
		return -v
	}
	return v
}

func abs64(v int64) int64 {
	if v < 0 {
		if v == -1<<63 {
			return 1<<63 - 1
		}
		return -v
	}
	return v
}
