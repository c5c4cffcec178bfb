package dnn

import (
	"fmt"
)

// Class distinguishes the two model families of the benchmark suite.
type Class int

const (
	// CNN models have a static DAG: the number of nodes to execute is
	// known at compile time (Section V-B).
	CNN Class = iota
	// RNN models unroll their recurrent layers to an input-dependent
	// sequence length, which PREMA predicts with the profile-driven
	// regression model (Figures 8-9).
	RNN
)

// String names the class.
func (c Class) String() string {
	switch c {
	case CNN:
		return "CNN"
	case RNN:
		return "RNN"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Run is one stretch of a model instance: Body executed Times times back
// to back. An RNN instance is its cells repeated over the unrolled
// sequence lengths, the way PREMA's predictor counts it (Section V-B,
// Algorithm 1), so a run stands for Times*len(Body) layers without
// building them. Bodies are built once by the model constructor and
// shared by every instance and every repetition; they must not be
// modified.
type Run struct {
	Body  []Layer
	Times int
}

// UnrollFunc describes an RNN instance for a concrete input and (sampled
// or predicted) output sequence length as runs of the model's bodies, in
// execution order. Every run it returns has Times >= 1: a body the
// instance never executes is left out.
type UnrollFunc func(inLen, outLen int) []Run

// Model is one inference workload in the zoo: either a static CNN layer
// list, or an RNN whose instances are runs of a few layer bodies (its
// encoder step, its decoder step, ...) plus a sequence-length profile
// name resolved by package seqlen. A layer name belongs to one body only:
// the name denotes weights, which every repetition of the body shares.
type Model struct {
	// Name is the paper's workload label, e.g. "CNN-VN" or "RNN-MT1".
	Name string
	// Class is CNN or RNN.
	Class Class

	// Static holds the layer list for CNN models.
	Static []Layer

	// Unroll describes an RNN instance as runs of its bodies.
	Unroll UnrollFunc
	// SeqProfile names the seq2seq length-characterization profile
	// (Figure 9) used to sample actual output lengths and to build the
	// regression lookup table. Empty for CNNs.
	SeqProfile string
	// MinInLen and MaxInLen bound the profiled input sequence lengths.
	MinInLen, MaxInLen int
}

// IsRNN reports whether the model unrolls dynamically.
func (m *Model) IsRNN() bool { return m.Class == RNN }

// Runs returns a concrete instance as runs of shared layer bodies. A CNN
// ignores the sequence lengths and is one run of Static; an RNN is what
// Unroll returns.
func (m *Model) Runs(inLen, outLen int) []Run {
	if m.Class == CNN {
		return []Run{{Body: m.Static, Times: 1}}
	}
	return m.Unroll(inLen, outLen)
}

// Validate checks the model definition: a CNN must have static layers and
// every layer must be self-consistent; an RNN must have an unroll function,
// valid length bounds, and self-consistent bodies, each checked once.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("dnn: model without a name")
	}
	switch m.Class {
	case CNN:
		if len(m.Static) == 0 {
			return fmt.Errorf("dnn: CNN model %q has no layers", m.Name)
		}
		for _, l := range m.Static {
			if err := l.Validate(); err != nil {
				return fmt.Errorf("model %q: %w", m.Name, err)
			}
		}
	case RNN:
		if m.Unroll == nil {
			return fmt.Errorf("dnn: RNN model %q has no unroll function", m.Name)
		}
		if m.MinInLen <= 0 || m.MaxInLen < m.MinInLen {
			return fmt.Errorf("dnn: RNN model %q has bad input-length bounds [%d,%d]",
				m.Name, m.MinInLen, m.MaxInLen)
		}
		if m.SeqProfile == "" {
			return fmt.Errorf("dnn: RNN model %q has no sequence profile", m.Name)
		}
		body := make(map[string]int) // layer name -> index of its run
		for i, r := range m.Unroll(m.MinInLen, m.MinInLen) {
			if r.Times < 1 {
				return fmt.Errorf("dnn: RNN model %q run %d repeats %d times", m.Name, i, r.Times)
			}
			for _, l := range r.Body {
				if j, ok := body[l.Name]; ok && j != i {
					return fmt.Errorf("dnn: RNN model %q layer %q is in runs %d and %d", m.Name, l.Name, j, i)
				}
				body[l.Name] = i
				if err := l.Validate(); err != nil {
					return fmt.Errorf("model %q: %w", m.Name, err)
				}
			}
		}
	default:
		return fmt.Errorf("dnn: model %q has unknown class %d", m.Name, int(m.Class))
	}
	return nil
}

// TotalMACs sums layer MACs for a concrete instantiation.
func (m *Model) TotalMACs(batch, inLen, outLen int) int64 {
	var total int64
	for _, r := range m.Runs(inLen, outLen) {
		var body int64
		for _, l := range r.Body {
			body += l.MACs(batch)
		}
		total += body * int64(r.Times)
	}
	return total
}

// TotalWeightBytes sums the weight footprint of a concrete instantiation.
// Every repetition of a body shares its weights (an RNN cell's weights
// serve all its timesteps), so each body counts once.
func (m *Model) TotalWeightBytes(inLen, outLen int) int64 {
	var total int64
	for _, r := range m.Runs(inLen, outLen) {
		for _, l := range r.Body {
			total += Bytes(l.WeightElems())
		}
	}
	return total
}

// MaxOutputBytes returns the largest single-layer output-activation
// footprint of the instantiated model — an upper bound on checkpointed
// live state for one in-flight layer.
func (m *Model) MaxOutputBytes(batch, inLen, outLen int) int64 {
	var max int64
	for _, r := range m.Runs(inLen, outLen) {
		for _, l := range r.Body {
			if b := Bytes(l.OutputElems(batch)); b > max {
				max = b
			}
		}
	}
	return max
}
