package prema

// zoo.go is the model-inspection surface: the benchmark zoo, per-model
// compilation, sequence-length prediction and program disassembly —
// everything cmd/premazoo and cmd/premapredict report, exposed through
// the facade.

import (
	"io"

	"repro/internal/dnn"
	"repro/internal/isa"
)

// AllModels returns every model in the benchmark zoo (the eight-model
// evaluation suite plus the auxiliary models).
func AllModels() []*Model { return dnn.All() }

// SuiteModels returns the labels of the paper's eight-model evaluation
// suite (Section III).
func SuiteModels() []string {
	suite := dnn.Suite()
	names := make([]string, len(suite))
	for i, m := range suite {
		names[i] = m.Name
	}
	return names
}

// Model looks one benchmark model up by label.
func (s *System) Model(name string) (*Model, error) { return dnn.ByName(name) }

// Compile lowers one concrete model instance to an NPU program. inLen
// and outLen are the unrolled sequence lengths for recurrent models
// (both 0 for CNNs; see PredictOutputLen for the regression estimate).
func (s *System) Compile(m *Model, batch, inLen, outLen int) (*Program, error) {
	return s.gen.Compiler().Compile(m, batch, inLen, outLen)
}

// PredictOutputLen runs the seq2seq length regression for a recurrent
// model: the output sequence length the Algorithm 1 predictor would
// assume for an input of inLen tokens.
func (s *System) PredictOutputLen(m *Model, inLen int) (int, error) {
	p, err := s.gen.Library().Predictor(m.SeqProfile)
	if err != nil {
		return 0, err
	}
	return p.Regression().Predict(inLen), nil
}

// Disassemble writes the ISA-level listing of a compiled program.
func Disassemble(p *Program, w io.Writer) error { return isa.Disassemble(p, w) }

// ElemBytes converts an element count to bytes at the zoo's element
// width.
func ElemBytes(elems int64) int64 { return dnn.Bytes(elems) }
