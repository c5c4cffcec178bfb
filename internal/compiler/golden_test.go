package compiler

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dnn"
	"repro/internal/npu"
)

// streamDigest renders one program's golden line: its instance, the
// flattened stream's length, totals, and a SHA-256 over every flattened
// instruction with its layer index.
func streamDigest(p *npu.Program) string {
	h := sha256.New()
	n := 0
	var rec [17]byte
	for layer, in := range p.Stream() {
		binary.LittleEndian.PutUint32(rec[0:4], uint32(layer))
		rec[4] = byte(in.Op)
		binary.LittleEndian.PutUint32(rec[5:9], uint32(in.Cycles))
		binary.LittleEndian.PutUint64(rec[9:17], uint64(in.LiveBytes))
		h.Write(rec[:])
		n++
	}
	return fmt.Sprintf("%s %d %d %d %d %d %d %x", p.Model, p.Batch, p.InLen, p.OutLen,
		n, p.TotalCycles, p.TotalMACs, h.Sum(nil))
}

// instance is one compiled model instance of the golden set.
type instance struct {
	m              *dnn.Model
	batch, in, out int
}

// goldenInstances lists every zoo model at batch 1, 4 and 16; RNNs at
// their minimum, middle and maximum input length (output length equal).
func goldenInstances() []instance {
	var out []instance
	for _, m := range dnn.All() {
		lens := []int{0}
		if m.IsRNN() {
			lens = []int{m.MinInLen, (m.MinInLen + m.MaxInLen) / 2, m.MaxInLen}
		}
		for _, b := range dnn.BatchSizes {
			for _, l := range lens {
				out = append(out, instance{m, b, l, l})
			}
		}
	}
	return out
}

// The flattened stream of every zoo instance is byte-identical to the one
// compiled before layers shared blocks (testdata/flat_stream.golden).
func TestFlattenedStreamGolden(t *testing.T) {
	f, err := os.Open("testdata/flat_stream.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	c := newCompiler(t)
	insts := goldenInstances()
	if len(insts) != len(want) {
		t.Fatalf("%d instances, golden has %d lines", len(insts), len(want))
	}
	for i, x := range insts {
		p, err := c.Compile(x.m, x.batch, x.in, x.out)
		if err != nil {
			t.Fatal(err)
		}
		if got := streamDigest(p); got != want[i] {
			t.Errorf("stream changed:\n got  %s\n want %s", got, want[i])
		}
	}
}

// Repeated layers share one block: an unrolled RNN's pool holds one
// block per distinct cell or projection, and every layer of the same
// shape points at it.
func TestRepeatedLayersShareBlocks(t *testing.T) {
	c := newCompiler(t)
	m, err := dnn.ByName("RNN-MT2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Compile(m, 1, 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	var layers []dnn.Layer
	for _, r := range m.Runs(50, 50) {
		for range r.Times {
			layers = append(layers, r.Body...)
		}
	}
	if p.Layers() != len(layers) {
		t.Fatalf("%d spans for %d layers", p.Layers(), len(layers))
	}
	first := map[string]npu.Span{}
	for i, l := range layers {
		if s, ok := first[l.Name]; ok && s != p.Spans[i] {
			t.Fatalf("layer %d (%s) span %+v, first use %+v", i, l.Name, p.Spans[i], s)
		}
		first[l.Name] = p.Spans[i]
	}
	// enc.l0/enc.l1/dec.l0/dec.l1 are one LSTM shape (embed == hidden),
	// so three blocks remain: the LSTM cell, attn and proj.
	distinct := map[npu.Span]bool{}
	for _, s := range p.Spans {
		distinct[s] = true
	}
	if len(distinct) != 3 {
		t.Errorf("%d distinct blocks, want 3", len(distinct))
	}
	if pool, stream := len(p.Instrs), p.StreamLen(); pool*50 > stream {
		t.Errorf("pool %d instructions for a %d-instruction stream", pool, stream)
	}
}
