// Package isa provides a concrete binary encoding and a textual
// assembly/disassembly format for the NPU's CISC instruction stream
// (Section II-B). The performance model in internal/npu operates on
// committed instructions with effective latencies; this package gives
// those instructions the serialized form a real NPU's instruction buffer
// would hold, so compiled programs can be dumped, diffed, stored and
// reloaded.
//
// Encoding (little endian, 24 bytes per instruction):
//
//	byte  0     opcode
//	byte  1-3   reserved (zero)
//	bytes 4-7   layer index (uint32)
//	bytes 8-11  effective cycles (uint32)
//	bytes 12-19 live context bytes after commit (uint64)
//	bytes 20-23 CRC-free checksum of the preceding fields (uint32)
//
// A program stream is prefixed with a 16-byte header: magic "PRMA",
// version, instruction count, and total cycles. The stream is the
// program's flattened one: a block that several layers share is written
// once per layer, with that layer's index, and the count is the
// flattened length.
package isa

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"repro/internal/npu"
)

// Magic identifies a serialized program stream.
const Magic = "PRMA"

// Version is the current encoding version.
const Version = 1

// instrSize is the encoded size of one instruction.
const instrSize = 24

// headerSize is the encoded size of the stream header.
const headerSize = 16

// checksum is a tiny integrity check over an encoded instruction's first
// 20 bytes (sum of 32-bit words, like the classic IP checksum family).
func checksum(b []byte) uint32 {
	var sum uint32
	for i := 0; i+4 <= 20; i += 4 {
		sum += binary.LittleEndian.Uint32(b[i : i+4])
	}
	return ^sum
}

// EncodeInstr serializes one instruction of the given layer.
func EncodeInstr(layer int, in npu.Instr) [instrSize]byte {
	var b [instrSize]byte
	b[0] = byte(in.Op)
	binary.LittleEndian.PutUint32(b[4:8], uint32(layer))
	binary.LittleEndian.PutUint32(b[8:12], uint32(in.Cycles))
	binary.LittleEndian.PutUint64(b[12:20], uint64(in.LiveBytes))
	binary.LittleEndian.PutUint32(b[20:24], checksum(b[:20]))
	return b
}

// DecodeInstr deserializes one instruction and its layer index, verifying
// its checksum.
func DecodeInstr(b []byte) (layer int, in npu.Instr, err error) {
	if len(b) < instrSize {
		return 0, npu.Instr{}, fmt.Errorf("isa: short instruction (%d bytes)", len(b))
	}
	if got, want := binary.LittleEndian.Uint32(b[20:24]), checksum(b[:20]); got != want {
		return 0, npu.Instr{}, fmt.Errorf("isa: instruction checksum mismatch (%08x != %08x)", got, want)
	}
	op := npu.Op(b[0])
	if op > npu.StoreTile {
		return 0, npu.Instr{}, fmt.Errorf("isa: unknown opcode %d", b[0])
	}
	return int(binary.LittleEndian.Uint32(b[4:8])), npu.Instr{
		Op:        op,
		Cycles:    int32(binary.LittleEndian.Uint32(b[8:12])),
		LiveBytes: int64(binary.LittleEndian.Uint64(b[12:20])),
	}, nil
}

// Write serializes a program's flattened stream: each instruction is
// written once per layer that executes it, tagged with that layer's index.
func Write(w io.Writer, p *npu.Program) error {
	var hdr [headerSize]byte
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(p.StreamLen()))
	// Total cycles are clamped into 48 bits (6 bytes) — far beyond any
	// real program.
	total := uint64(p.TotalCycles)
	if total >= 1<<48 {
		return fmt.Errorf("isa: program total %d exceeds the 48-bit header field", total)
	}
	hdr[10] = byte(total)
	hdr[11] = byte(total >> 8)
	hdr[12] = byte(total >> 16)
	hdr[13] = byte(total >> 24)
	hdr[14] = byte(total >> 32)
	hdr[15] = byte(total >> 40)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for layer, in := range p.Stream() {
		enc := EncodeInstr(layer, in)
		if _, err := bw.Write(enc[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a program stream, one block per layer in the order the
// layer indices appear (which must not decrease). Model/batch metadata is
// not part of the binary format; callers may set those fields afterwards.
func Read(r io.Reader) (*npu.Program, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("isa: reading header: %w", err)
	}
	if string(hdr[0:4]) != Magic {
		return nil, fmt.Errorf("isa: bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return nil, fmt.Errorf("isa: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint32(hdr[6:10])
	total := uint64(hdr[10]) | uint64(hdr[11])<<8 | uint64(hdr[12])<<16 |
		uint64(hdr[13])<<24 | uint64(hdr[14])<<32 | uint64(hdr[15])<<40

	p := &npu.Program{Model: "(loaded)", Batch: 1}
	br := bufio.NewReader(r)
	buf := make([]byte, instrSize)
	var block []npu.Instr
	cur := 0 // layer of block
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("isa: reading instruction %d: %w", i, err)
		}
		layer, in, err := DecodeInstr(buf)
		if err != nil {
			return nil, fmt.Errorf("isa: instruction %d: %w", i, err)
		}
		if layer < cur {
			return nil, fmt.Errorf("isa: instruction %d returns to layer %d after layer %d", i, layer, cur)
		}
		if layer > int(count) {
			// Each layer index opens a span; bounding indices by the
			// stream length bounds the span table a stream can demand.
			return nil, fmt.Errorf("isa: instruction %d names layer %d of a %d-instruction stream", i, layer, count)
		}
		for ; cur < layer; cur++ {
			p.AppendLayer(block...)
			block = block[:0]
		}
		block = append(block, in)
	}
	if count > 0 {
		p.AppendLayer(block...)
	}
	if p.TotalCycles != int64(total) {
		return nil, fmt.Errorf("isa: header total %d != instruction sum %d", total, p.TotalCycles)
	}
	return p, nil
}

// Disassemble renders a program as readable assembly, one instruction per
// line, collapsing runs of identical (op, layer) tiles into a repeat
// count so multi-thousand-tile layers stay scannable.
func Disassemble(p *npu.Program, w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "; program %s batch=%d layers=%d instrs=%d total=%d cycles\n",
		p.Model, p.Batch, p.Layers(), p.StreamLen(), p.TotalCycles)
	// Runs never cross a layer boundary, so each layer's block is
	// collapsed on its own.
	for layer := range p.Spans {
		block := p.Block(layer)
		for i := 0; i < len(block); {
			in := block[i]
			j := i
			var runCycles int64
			for j < len(block) && block[j].Op == in.Op {
				runCycles += int64(block[j].Cycles)
				j++
			}
			if n := j - i; n == 1 {
				fmt.Fprintf(bw, "%-10s layer=%-4d cycles=%-8d live=%d\n",
					in.Op, layer, in.Cycles, in.LiveBytes)
			} else {
				fmt.Fprintf(bw, "%-10s layer=%-4d x%-6d cycles=%-10d live<=%d\n",
					in.Op, layer, n, runCycles, block[j-1].LiveBytes)
			}
			i = j
		}
	}
	return bw.Flush()
}

// ParseOp resolves an assembly mnemonic to its opcode.
func ParseOp(s string) (npu.Op, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "LOAD_TILE":
		return npu.LoadTile, nil
	case "GEMM_OP":
		return npu.GEMMOp, nil
	case "CONV_OP":
		return npu.ConvOp, nil
	case "VECTOR_OP":
		return npu.VectorOp, nil
	case "STORE_TILE":
		return npu.StoreTile, nil
	default:
		return 0, fmt.Errorf("isa: unknown mnemonic %q", s)
	}
}
