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
// layer shape is lowered the first time it appears in that pool, and every
// later layer of the same shape, in this or any other instance, points at
// the same block. A Compile that lowers new shapes first validates them
// and counts their instructions (count shares its tiling and chunk
// arithmetic with the lowering), then grows the pool once by the sum, so
// lowering appends without reallocating. A body is resolved once per pool
// into a span per layer, and every program of the pool that runs the body
// shares that span slice, so a program's run table is one {Body, Times}
// entry per run of its instance and a new RNN instance costs a few runs
// whatever its sequence lengths. Each program's Instrs is the pool as it
// stood when the program was built, clipped to its length and capacity, so
// the pool is immutable below every program's length. A program's pool may
// therefore hold blocks the program never runs; its flattened stream (see
// npu.Program) is the one lowering every layer in turn would have
// produced.
package compiler

import (
	"fmt"
	"math"
	"slices"
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
	// fresh is reserve's scratch list of the layer shapes one Compile
	// adds to its pool.
	fresh []dnn.Layer
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
	if err := c.reserve(p, m.Name, runs, batch); err != nil {
		return nil, err
	}
	for i, r := range runs {
		b := c.body(p, r.Body, batch)
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
		p = &pool{bodies: make(map[bodyKey]body)}
		c.pools[k] = p
	}
	return p
}

// reserve validates each layer shape that the unseen bodies among runs
// add to p and grows p's instructions once by the sum of their counts, so
// that lowering them never reallocates the pool (a new pool's block map is
// sized for them too). An invalid shape, or a pool past the int32 offsets
// of a span, is an error and leaves p as it was. The caller holds c.mu.
func (c *Compiler) reserve(p *pool, model string, runs []dnn.Run, batch int) error {
	c.fresh = c.fresh[:0]
	n := 0
	for _, r := range runs {
		if len(r.Body) == 0 {
			continue
		}
		if _, ok := p.bodies[bodyKey{&r.Body[0], len(r.Body)}]; ok {
			continue
		}
		for _, l := range r.Body {
			key := shape(l)
			if _, ok := p.blocks[key]; ok || slices.Contains(c.fresh, key) {
				continue
			}
			if err := l.Validate(); err != nil {
				return fmt.Errorf("compiler: %w", err)
			}
			// A valid layer lowers to at least one instruction; a count
			// below that is a gigantic layer's arithmetic overflowing.
			k := c.count(l, batch)
			if k < 1 || k > math.MaxInt32-len(p.instrs)-n {
				return fmt.Errorf("compiler: model %q at batch %d needs more than %d pooled instructions",
					model, batch, math.MaxInt32)
			}
			n += k
			c.fresh = append(c.fresh, key)
		}
	}
	if p.blocks == nil {
		p.blocks = make(map[dnn.Layer]block, len(c.fresh))
	}
	if n > cap(p.instrs)-len(p.instrs) {
		// Not slices.Grow: its append of a fresh slice allocates that
		// slice too wherever the compiler does not elide it (-race).
		grown := make([]npu.Instr, len(p.instrs), len(p.instrs)+n)
		copy(grown, p.instrs)
		p.instrs = grown
	}
	return nil
}

// shape is a layer's block key: the layer with its name cleared.
func shape(l dnn.Layer) dnn.Layer {
	l.Name = ""
	return l
}

// body returns layers' body in p, resolving each layer's block the first
// time the body appears. The span slice is capacity-clipped, so appending
// to a program's run body copies it rather than writing into the pool's.
// The caller holds c.mu and has reserved the body's new blocks.
func (c *Compiler) body(p *pool, layers []dnn.Layer, batch int) body {
	if len(layers) == 0 {
		return body{}
	}
	k := bodyKey{&layers[0], len(layers)}
	if b, ok := p.bodies[k]; ok {
		return b
	}
	spans := make([]npu.Span, len(layers))
	var b body
	for i, l := range layers {
		blk := c.block(p, l, batch)
		spans[i] = blk.span
		b.cycles += blk.cycles
		b.macs += l.MACs(batch)
	}
	b.spans = spans
	p.bodies[k] = b
	return b
}

// block returns layer l's block in p, lowering it onto the end of the
// pool the first time its shape appears. Layers that differ only in name
// share a block. The caller holds c.mu and has validated and reserved a
// new shape.
func (c *Compiler) block(p *pool, l dnn.Layer, batch int) block {
	key := shape(l)
	if b, ok := p.blocks[key]; ok {
		return b
	}
	off := len(p.instrs)
	p.instrs = c.lowerLayer(p.instrs, l, batch)
	b := block{span: npu.Span{Off: int32(off), Len: int32(len(p.instrs) - off)}}
	for _, in := range p.instrs[off:] {
		b.cycles += int64(in.Cycles)
	}
	p.blocks[key] = b
	return b
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

// count answers how many instructions lowerLayer appends for l, from the
// plans the lowering itself follows.
func (c *Compiler) count(l dnn.Layer, batch int) int {
	switch l.Kind {
	case dnn.Conv, dnn.FC, dnn.LSTM:
		if g, ok := c.planGEMM(l, batch); ok {
			return g.instrs()
		}
	case dnn.DWConv, dnn.Pool, dnn.Act:
		return c.planVector(l, batch).chunks
	}
	return 0
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

// count answers how many tiles the GEMM streams.
func (t gemmTiles) count() int { return t.mTiles * t.kTiles * (t.nInner + t.nOuter) }

// gemmPlan is what a GEMM-mapped layer's lowering and its instruction
// count share: the tiling, the activation footprints, whether outputs
// spill past UBUF, and the fused-activation epilogue's cycles (none when
// zero).
type gemmPlan struct {
	tiles             gemmTiles
	inBytes, outBytes int64
	spills            bool
	epilogue          int64
}

// planGEMM plans a GEMM-mapped layer; ok is false for a shape that lowers
// to no instructions.
func (c *Compiler) planGEMM(l dnn.Layer, batch int) (p gemmPlan, ok bool) {
	g, ok := l.GEMM(batch)
	if !ok || !g.Valid() {
		return gemmPlan{}, false
	}
	p = gemmPlan{
		tiles:    tile(c.cfg, g),
		inBytes:  dnn.Bytes(l.InputElems(batch)),
		outBytes: dnn.Bytes(l.OutputElems(batch)),
	}
	p.spills = p.outBytes > c.cfg.UBUFBytes
	if l.FusedAct {
		// The vector unit chases the GEMM output stream, so only a
		// fraction of its work extends the critical path.
		p.epilogue = l.OutputElems(batch) / int64(c.cfg.VectorLanes) / 4
	}
	return p, true
}

// instrs counts the plan's instructions: the weight preamble, one per
// tile, the spill drain and the epilogue.
func (p gemmPlan) instrs() int {
	n := 1 + p.tiles.count()
	if p.spills {
		n++
	}
	if p.epilogue > 0 {
		n++
	}
	return n
}

// lowerGEMM emits the instruction stream for a GEMM-mapped layer:
// a weight preamble (LOAD_TILE + DRAM latency, not overlappable because
// the pipeline is empty), one CONV_OP/GEMM_OP per tile with the
// double-buffered effective latency, an optional STORE_TILE spill when
// outputs exceed UBUF, and a VECTOR_OP epilogue for fused activations.
func (c *Compiler) lowerGEMM(dst []npu.Instr, l dnn.Layer, batch int) []npu.Instr {
	p, ok := c.planGEMM(l, batch)
	if !ok {
		return dst
	}
	cfg := c.cfg
	t := p.tiles
	op := npu.GEMMOp
	if l.Kind == dnn.Conv {
		op = npu.ConvOp
	}

	// Preamble: first weight tile load with the pipeline idle.
	preBytes := dnn.Bytes(int64(cfg.SH) * int64(cfg.SW))
	pre := cfg.MemCycles(preBytes) + cfg.MemLatencyCycles
	dst = append(dst, npu.Instr{
		Op:        npu.LoadTile,
		Cycles:    clampCycles(pre),
		LiveBytes: liveBytes(cfg, p.inBytes, 0),
	})

	totalTiles := t.count()
	emitted := 0
	emitTile := func(kTile, n int) {
		cycles := TileTime(cfg, kTile, n)
		if p.spills {
			// Output rows leave UBUF for DRAM as they are produced;
			// the extra write traffic competes with tile fetches.
			extra := cfg.MemCycles(dnn.Bytes(int64(cfg.SW) * int64(n)))
			if mem := extra + memOnly(cfg, kTile, n); mem > cycles {
				cycles = mem
			}
		}
		emitted++
		produced := int64(float64(p.outBytes) * float64(emitted) / float64(totalTiles))
		dst = append(dst, npu.Instr{
			Op:        op,
			Cycles:    clampCycles(cycles),
			LiveBytes: liveBytes(cfg, p.inBytes, produced),
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

	if p.spills {
		// Residual drain of the final output rows that could not
		// overlap with further compute.
		drain := cfg.MemCycles(dnn.Bytes(int64(cfg.SW)*int64(cfg.ACC))) + cfg.MemLatencyCycles
		dst = append(dst, npu.Instr{
			Op:        npu.StoreTile,
			Cycles:    clampCycles(drain),
			LiveBytes: liveBytes(cfg, 0, p.outBytes),
		})
	}

	if p.epilogue > 0 {
		// Fused activation epilogue.
		dst = append(dst, npu.Instr{
			Op:        npu.VectorOp,
			Cycles:    clampCycles(p.epilogue),
			LiveBytes: liveBytes(cfg, 0, p.outBytes),
		})
	}
	return dst
}

// memOnly returns the tile's memory phase without the weight preamble.
func memOnly(cfg npu.Config, kTile, n int) int64 {
	return cfg.MemCycles(dnn.Bytes(int64(cfg.SH)*int64(cfg.SW) + int64(kTile)*int64(n)))
}

// vectorPlan is what a vector-unit layer's lowering and its instruction
// count share: the activation footprints, the layer's cycles and the
// number of chunks they split into.
type vectorPlan struct {
	inBytes, outBytes int64
	cycles            int64
	chunks            int
}

// planVector plans a layer that bypasses the systolic array. The latency
// is element throughput bound by the vector lanes, or by memory when the
// layer is bandwidth bound. Long layers split into chunks of about
// chunkTarget cycles so preemption points stay fine-grained (footnote 2:
// tile-boundary preemption).
func (c *Compiler) planVector(l dnn.Layer, batch int) vectorPlan {
	const chunkTarget = 1 << 14 // cycles per emitted instruction
	cfg := c.cfg
	compute := stats.CeilDiv64(l.MACs(batch), int64(cfg.VectorLanes))
	p := vectorPlan{
		inBytes:  dnn.Bytes(l.InputElems(batch)),
		outBytes: dnn.Bytes(l.OutputElems(batch)),
	}
	mem := cfg.MemCycles(p.inBytes + dnn.Bytes(l.WeightElems()))
	p.cycles = max(compute, mem) + cfg.MemLatencyCycles
	p.chunks = int(p.cycles/chunkTarget) + 1
	return p
}

// lowerVector emits vector-unit work for layers that bypass the systolic
// array: depthwise convolutions, pooling, standalone activations, one
// VECTOR_OP per chunk of the plan.
func (c *Compiler) lowerVector(dst []npu.Instr, l dnn.Layer, batch int) []npu.Instr {
	p := c.planVector(l, batch)
	per := p.cycles / int64(p.chunks)
	rem := p.cycles - per*int64(p.chunks)
	for i := 0; i < p.chunks; i++ {
		cyc := per
		if i == p.chunks-1 {
			cyc += rem
		}
		produced := int64(float64(p.outBytes) * float64(i+1) / float64(p.chunks))
		dst = append(dst, npu.Instr{
			Op:        npu.VectorOp,
			Cycles:    clampCycles(cyc),
			LiveBytes: liveBytes(c.cfg, p.inBytes, produced),
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
