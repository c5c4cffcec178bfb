// Package compiler lowers a DNN model instance (model, batch size and,
// for RNNs, a concrete unrolled sequence length) into the NPU's CISC
// instruction stream with per-instruction effective latencies.
//
// The timing model is the paper's deterministic weight-stationary dataflow
// (Figure 3, Algorithm 1): every GEMM is tiled into (SW x SH) weight tiles
// streamed against (SH x ACC) activation tiles; double-buffering overlaps
// each tile's memory phase with the previous tile's compute phase, so a
// tile's effective latency is max(compute, memory).
//
// On top of Algorithm 1's first-order terms the compiler adds the
// second-order effects a real NPU pays and the paper's predictor
// deliberately omits — the per-layer weight preamble (first tile's
// non-overlappable load plus a DRAM access), output-spill traffic for
// layers whose activations exceed UBUF, and vector-unit epilogues for
// fused activations. These residues are what give PREMA's predictor its
// small but non-zero estimation error (Section VI-A reports 1.6%).
//
// A layer's block depends only on its shape and the batch size, never on
// its name or position. A model instance arrives as runs of shared layer
// bodies (dnn.Run), and the Compiler keeps one append-only block pool per
// (model, batch), created on the first Compile and guarded by a mutex: a
// layer shape is lowered the first time it appears in that pool, and
// every later layer of the same shape, in this or any other instance,
// points at the same block. A body is resolved once per pool into a span
// per layer, and every program of the pool that runs the body shares
// that span slice, so a program's run table is one {Body, Times} entry
// per run of its instance and a new RNN instance costs a few runs
// whatever its sequence lengths. Each program's Instrs is the pool as it
// stood when the program was built, clipped to its length and capacity,
// so the pool is immutable below every program's length. A program's
// pool may therefore hold blocks the program never runs; its flattened
// stream (see npu.Program) is the one lowering every layer in turn would
// have produced.
package compiler

import (
	"fmt"
	"sync"

	"repro/internal/dnn"
	"repro/internal/npu"
	"repro/internal/stats"
)

// Compiler lowers models for one NPU configuration. It is safe for
// concurrent use.
type Compiler struct {
	cfg npu.Config

	mu    sync.Mutex
	pools map[poolKey]*pool
}

type poolKey struct {
	model string
	batch int
}

// pool is the block pool of one (model, batch): the instructions of every
// block lowered so far, each layer shape's block, and each body's spans.
type pool struct {
	instrs []npu.Instr
	blocks map[dnn.Layer]block
	bodies map[bodyKey]body
}

// block is one lowered layer: its place in the pool and its cycle sum.
type block struct {
	span   npu.Span
	cycles int64
}

// bodyKey identifies a dnn body by its slice: a model builds each body
// once and shares it with every instance (dnn.Run).
type bodyKey struct {
	first *dnn.Layer
	n     int
}

// body is one resolved layer body: a span per layer, shared by every
// program of the pool that runs it, and one repetition's cycle and MAC
// sums.
type body struct {
	spans        []npu.Span
	cycles, macs int64
}

// New returns a Compiler for the given configuration.
func New(cfg npu.Config) (*Compiler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Compiler{cfg: cfg}, nil
}

// Compile lowers a model instance. For CNNs, inLen/outLen are ignored.
func (c *Compiler) Compile(m *dnn.Model, batch, inLen, outLen int) (*npu.Program, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("compiler: non-positive batch %d", batch)
	}
	runs := m.Runs(inLen, outLen)
	layers := 0
	for i, r := range runs {
		if r.Times < 0 {
			return nil, fmt.Errorf("compiler: model %q run %d repeats %d times", m.Name, i, r.Times)
		}
		if len(r.Body) > 0 && r.Times > (npu.MaxLayers-layers)/len(r.Body) {
			return nil, fmt.Errorf("compiler: model %q instance has more than %d layers", m.Name, npu.MaxLayers)
		}
		layers += r.Times * len(r.Body)
	}
	if layers == 0 {
		return nil, fmt.Errorf("compiler: model %q produced no layers", m.Name)
	}
	prog := &npu.Program{
		Model:  m.Name,
		Batch:  batch,
		InLen:  inLen,
		OutLen: outLen,
		Runs:   make([]npu.Run, len(runs)),
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pool(m.Name, batch)
	for i, r := range runs {
		b, err := c.body(p, r.Body, batch)
		if err != nil {
			return nil, err
		}
		prog.Runs[i] = npu.Run{Body: b.spans, Times: r.Times}
		prog.TotalCycles += b.cycles * int64(r.Times)
		prog.TotalMACs += b.macs * int64(r.Times)
	}
	prog.Instrs = p.instrs[:len(p.instrs):len(p.instrs)]
	return prog, nil
}

// pool returns the block pool of (model, batch), creating it (and the
// pool map) on first use. The caller holds c.mu.
func (c *Compiler) pool(model string, batch int) *pool {
	k := poolKey{model, batch}
	p := c.pools[k]
	if p == nil {
		if c.pools == nil {
			c.pools = make(map[poolKey]*pool)
		}
		p = &pool{blocks: make(map[dnn.Layer]block), bodies: make(map[bodyKey]body)}
		c.pools[k] = p
	}
	return p
}

// body returns layers' body in p, resolving each layer's block the first
// time the body appears. The span slice is capacity-clipped, so appending
// to a program's run body copies it rather than writing into the pool's.
// The caller holds c.mu.
func (c *Compiler) body(p *pool, layers []dnn.Layer, batch int) (body, error) {
	if len(layers) == 0 {
		return body{}, nil
	}
	k := bodyKey{&layers[0], len(layers)}
	if b, ok := p.bodies[k]; ok {
		return b, nil
	}
	spans := make([]npu.Span, len(layers))
	var b body
	for i, l := range layers {
		blk, err := c.block(p, l, batch)
		if err != nil {
			return body{}, err
		}
		spans[i] = blk.span
		b.cycles += blk.cycles
		b.macs += l.MACs(batch)
	}
	b.spans = spans
	p.bodies[k] = b
	return b, nil
}

// block returns layer l's block in p, lowering it onto the end of the
// pool the first time its shape appears. Layers that differ only in name
// share a block. The caller holds c.mu.
func (c *Compiler) block(p *pool, l dnn.Layer, batch int) (block, error) {
	key := l
	key.Name = ""
	if b, ok := p.blocks[key]; ok {
		return b, nil
	}
	if err := l.Validate(); err != nil {
		return block{}, fmt.Errorf("compiler: %w", err)
	}
	off := len(p.instrs)
	p.instrs = c.lowerLayer(p.instrs, l, batch)
	b := block{span: npu.Span{Off: int32(off), Len: int32(len(p.instrs) - off)}}
	for _, in := range p.instrs[off:] {
		b.cycles += int64(in.Cycles)
	}
	p.blocks[key] = b
	return b, nil
}

// lowerLayer appends one layer's block to dst.
func (c *Compiler) lowerLayer(dst []npu.Instr, l dnn.Layer, batch int) []npu.Instr {
	switch l.Kind {
	case dnn.Conv, dnn.FC, dnn.LSTM:
		return c.lowerGEMM(dst, l, batch)
	case dnn.DWConv, dnn.Pool, dnn.Act:
		return c.lowerVector(dst, l, batch)
	}
	return dst
}

// TileTime returns the effective latency of one GEMM tile with kTile
// reduction rows and n streamed activation columns, per Algorithm 1:
// compute = n + SH + 2*SW (pipeline fill, stream, drain and weight
// staging), memory = (weight tile + activation tile bytes) / bandwidth,
// effective = max of the two under double buffering.
func TileTime(cfg npu.Config, kTile, n int) int64 {
	compute := int64(n) + int64(cfg.SH) + 2*int64(cfg.SW)
	bytes := dnn.Bytes(int64(cfg.SH)*int64(cfg.SW) + int64(kTile)*int64(n))
	mem := cfg.MemCycles(bytes)
	if mem > compute {
		return mem
	}
	return compute
}

// gemmTiles describes the tiling of a GEMM shape onto the array.
type gemmTiles struct {
	mTiles, kTiles int // full coverage counts (ceil)
	nInner, nOuter int // inner tiles stream ACC columns; outer the residue
	outerN         int // residual column count (0 if none)
	kLast          int // reduction rows in the final k tile
}

func tile(cfg npu.Config, g dnn.GEMMShape) gemmTiles {
	t := gemmTiles{
		mTiles: stats.CeilDiv(g.M, cfg.SW),
		kTiles: stats.CeilDiv(g.K, cfg.SH),
		nInner: g.N / cfg.ACC,
		outerN: g.N % cfg.ACC,
	}
	if t.outerN > 0 {
		t.nOuter = 1
	}
	t.kLast = g.K - (t.kTiles-1)*cfg.SH
	return t
}

// lowerGEMM emits the instruction stream for a GEMM-mapped layer:
// a weight preamble (LOAD_TILE + DRAM latency, not overlappable because
// the pipeline is empty), one CONV_OP/GEMM_OP per tile with the
// double-buffered effective latency, an optional STORE_TILE spill when
// outputs exceed UBUF, and a VECTOR_OP epilogue for fused activations.
func (c *Compiler) lowerGEMM(dst []npu.Instr, l dnn.Layer, batch int) []npu.Instr {
	g, ok := l.GEMM(batch)
	if !ok || !g.Valid() {
		return dst
	}
	cfg := c.cfg
	t := tile(cfg, g)
	op := npu.GEMMOp
	if l.Kind == dnn.Conv {
		op = npu.ConvOp
	}

	inBytes := dnn.Bytes(l.InputElems(batch))
	outBytes := dnn.Bytes(l.OutputElems(batch))
	spills := outBytes > cfg.UBUFBytes

	// Preamble: first weight tile load with the pipeline idle.
	preBytes := dnn.Bytes(int64(cfg.SH) * int64(cfg.SW))
	pre := cfg.MemCycles(preBytes) + cfg.MemLatencyCycles
	dst = append(dst, npu.Instr{
		Op:        npu.LoadTile,
		Cycles:    clampCycles(pre),
		LiveBytes: liveBytes(cfg, inBytes, 0),
	})

	totalTiles := t.mTiles * t.kTiles * (t.nInner + t.nOuter)
	emitted := 0
	emitTile := func(kTile, n int) {
		cycles := TileTime(cfg, kTile, n)
		if spills {
			// Output rows leave UBUF for DRAM as they are produced;
			// the extra write traffic competes with tile fetches.
			extra := cfg.MemCycles(dnn.Bytes(int64(cfg.SW) * int64(n)))
			if mem := extra + memOnly(cfg, kTile, n); mem > cycles {
				cycles = mem
			}
		}
		emitted++
		produced := int64(float64(outBytes) * float64(emitted) / float64(totalTiles))
		dst = append(dst, npu.Instr{
			Op:        op,
			Cycles:    clampCycles(cycles),
			LiveBytes: liveBytes(cfg, inBytes, produced),
		})
	}

	for m := 0; m < t.mTiles; m++ {
		for k := 0; k < t.kTiles; k++ {
			kTile := cfg.SH
			if k == t.kTiles-1 {
				kTile = t.kLast
			}
			for n := 0; n < t.nInner; n++ {
				emitTile(kTile, cfg.ACC)
			}
			if t.nOuter > 0 {
				emitTile(kTile, t.outerN)
			}
		}
	}

	if spills {
		// Residual drain of the final output rows that could not
		// overlap with further compute.
		drain := cfg.MemCycles(dnn.Bytes(int64(cfg.SW)*int64(cfg.ACC))) + cfg.MemLatencyCycles
		dst = append(dst, npu.Instr{
			Op:        npu.StoreTile,
			Cycles:    clampCycles(drain),
			LiveBytes: liveBytes(cfg, 0, outBytes),
		})
	}

	if l.FusedAct {
		// Fused activation epilogue: the vector unit chases the GEMM
		// output stream, so only a fraction of its work extends the
		// critical path.
		ep := l.OutputElems(batch) / int64(cfg.VectorLanes) / 4
		if ep > 0 {
			dst = append(dst, npu.Instr{
				Op:        npu.VectorOp,
				Cycles:    clampCycles(ep),
				LiveBytes: liveBytes(cfg, 0, outBytes),
			})
		}
	}
	return dst
}

// memOnly returns the tile's memory phase without the weight preamble.
func memOnly(cfg npu.Config, kTile, n int) int64 {
	return cfg.MemCycles(dnn.Bytes(int64(cfg.SH)*int64(cfg.SW) + int64(kTile)*int64(n)))
}

// lowerVector emits vector-unit work for layers that bypass the systolic
// array: depthwise convolutions, pooling, standalone activations. The
// latency is element throughput bound by the vector lanes, or by memory
// when the layer is bandwidth bound.
func (c *Compiler) lowerVector(dst []npu.Instr, l dnn.Layer, batch int) []npu.Instr {
	cfg := c.cfg
	macs := l.MACs(batch)
	compute := stats.CeilDiv64(macs, int64(cfg.VectorLanes))
	inBytes := dnn.Bytes(l.InputElems(batch))
	outBytes := dnn.Bytes(l.OutputElems(batch))
	wBytes := dnn.Bytes(l.WeightElems())
	mem := cfg.MemCycles(inBytes + wBytes)
	cycles := compute
	if mem > cycles {
		cycles = mem
	}
	cycles += cfg.MemLatencyCycles

	// Split long vector layers into ACC-sized chunks so preemption
	// points stay fine-grained (footnote 2: tile-boundary preemption).
	const chunkTarget = 1 << 14 // cycles per emitted instruction
	chunks := int(cycles/chunkTarget) + 1
	per := cycles / int64(chunks)
	rem := cycles - per*int64(chunks)
	for i := 0; i < chunks; i++ {
		cyc := per
		if i == chunks-1 {
			cyc += rem
		}
		produced := int64(float64(outBytes) * float64(i+1) / float64(chunks))
		dst = append(dst, npu.Instr{
			Op:        npu.VectorOp,
			Cycles:    clampCycles(cyc),
			LiveBytes: liveBytes(cfg, inBytes, produced),
		})
	}
	return dst
}

// liveBytes models the checkpointable on-chip context: resident input
// activations plus the output activations produced so far, capped by the
// UBUF capacity (activations beyond UBUF stream through DRAM and need no
// checkpointing; Section IV-B).
func liveBytes(cfg npu.Config, inBytes, producedOut int64) int64 {
	live := inBytes + producedOut
	if live > cfg.UBUFBytes {
		live = cfg.UBUFBytes
	}
	return live
}

func clampCycles(c int64) int32 {
	const max = 1<<31 - 1
	if c > max {
		return max
	}
	if c < 0 {
		return 0
	}
	return int32(c)
}
