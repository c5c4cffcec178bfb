package isa

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
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
	for layer := range prog.Spans {
		if !slices.Equal(loaded.Block(layer), prog.Block(layer)) {
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
func compileMT2(t *testing.T) *npu.Program {
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
