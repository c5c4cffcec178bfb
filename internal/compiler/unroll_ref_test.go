package compiler_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/compiler"
	"repro/internal/dnn"
	"repro/internal/npu"
	"repro/internal/predictor"
	"repro/internal/seqlen"
)

// The per-step unroll closures the zoo RNNs used before their instances
// became runs of shared bodies, copied unchanged (bar the dnn.
// qualifiers): each materialises every unrolled timestep as its own
// layer. They are the reference that runs must flatten to.

func lstmStack(layers []dnn.Layer, prefix string, nLayers, hidden, inDim int) []dnn.Layer {
	for l := 0; l < nLayers; l++ {
		d := hidden
		if l == 0 {
			d = inDim
		}
		layers = append(layers, dnn.NewLSTM(fmt.Sprintf("%s.l%d", prefix, l), hidden, d))
	}
	return layers
}

func refSentimentAnalysis() func(inLen, outLen int) []dnn.Layer {
	const (
		hidden = 512
		embed  = 512
		stack  = 2
	)
	unroll := func(inLen, outLen int) []dnn.Layer {
		// Linear RNN: recurrence length == input length; outLen is
		// ignored by construction (Figure 8(b)).
		var layers []dnn.Layer
		for t := 0; t < inLen; t++ {
			layers = lstmStack(layers, "enc", stack, hidden, embed)
		}
		layers = append(layers, dnn.NewFC("cls", hidden, 2, false))
		return layers
	}
	return unroll
}

func refMachineTranslation(stack, hidden, vocab int) func(inLen, outLen int) []dnn.Layer {
	embed := hidden
	unroll := func(inLen, outLen int) []dnn.Layer {
		var layers []dnn.Layer
		for t := 0; t < inLen; t++ {
			layers = lstmStack(layers, "enc", stack, hidden, embed)
		}
		for t := 0; t < outLen; t++ {
			layers = lstmStack(layers, "dec", stack, hidden, embed)
			// Attention context combine and vocabulary projection
			// per generated token (seq2seq decoding, Figure 8(c)).
			layers = append(layers,
				dnn.NewFC("attn", 2*hidden, hidden, true),
				dnn.NewFC("proj", hidden, vocab, false),
			)
		}
		return layers
	}
	return unroll
}

func refSpeechRecognition() func(inLen, outLen int) []dnn.Layer {
	const (
		hidden  = 512
		featDim = 80
		charVoc = 30
	)
	unroll := func(inLen, outLen int) []dnn.Layer {
		var layers []dnn.Layer
		// Pyramidal encoder: layer l runs ceil(inLen / 2^l) steps and
		// consumes the concatenation of two lower-layer outputs.
		steps := inLen
		inDim := featDim
		for l := 0; l < 3; l++ {
			for t := 0; t < steps; t++ {
				// Bidirectional: forward and backward cells.
				layers = append(layers,
					dnn.NewLSTM(fmt.Sprintf("enc.l%d.fw", l), hidden, inDim),
					dnn.NewLSTM(fmt.Sprintf("enc.l%d.bw", l), hidden, inDim),
				)
			}
			steps = (steps + 1) / 2
			inDim = 4 * hidden // concat of 2 timesteps x 2 directions
		}
		for t := 0; t < outLen; t++ {
			layers = lstmStack(layers, "dec", 2, hidden, hidden)
			layers = append(layers,
				dnn.NewFC("attn", 2*hidden, hidden, true),
				dnn.NewFC("proj", hidden, charVoc, false),
			)
		}
		return layers
	}
	return unroll
}

// references maps each zoo RNN to its pre-runs unroll closure.
var references = map[string]func(inLen, outLen int) []dnn.Layer{
	"RNN-SA":    refSentimentAnalysis(),
	"RNN-MT1":   refMachineTranslation(2, 768, 16000),
	"RNN-MT2":   refMachineTranslation(2, 512, 4096),
	"RNN-MT-KO": refMachineTranslation(2, 768, 16000),
	"RNN-ASR":   refSpeechRecognition(),
}

// flatten expands runs into the layer list they stand for.
func flatten(runs []dnn.Run) []dnn.Layer {
	var layers []dnn.Layer
	for _, r := range runs {
		for range r.Times {
			layers = append(layers, r.Body...)
		}
	}
	return layers
}

// refWeightBytes is the pre-runs weight footprint: unrolled duplicates of
// the same named layer count once.
func refWeightBytes(layers []dnn.Layer) int64 {
	seen := make(map[string]bool)
	var total int64
	for _, l := range layers {
		if seen[l.Name] {
			continue
		}
		seen[l.Name] = true
		total += dnn.Bytes(l.WeightElems())
	}
	return total
}

// compileChecks is what one program must agree on across compilers.
type compileChecks struct {
	digest                string
	cycles, macs, maxLive int64
}

func checksOf(p *npu.Program) compileChecks {
	return compileChecks{compiler.StreamDigest(p), p.TotalCycles, p.TotalMACs, p.MaxLiveBytes()}
}

func newCompiler(t *testing.T) *compiler.Compiler {
	t.Helper()
	c, err := compiler.New(npu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Every RNN instance, as runs, is exactly the old per-step unroll: the
// flattened layers, the compiled stream (on a warm shared-pool compiler,
// a fresh one, and over the reference list itself), the analytic
// estimate and the model's sums all agree with the reference.
func TestRunsEqualPerStepUnroll(t *testing.T) {
	cfg := npu.DefaultConfig()
	lib, err := seqlen.NewLibrary(0xA11CE)
	if err != nil {
		t.Fatal(err)
	}
	an, err := predictor.NewAnalytic(cfg, lib)
	if err != nil {
		t.Fatal(err)
	}
	warm := newCompiler(t)
	// Odd input lengths exercise the pyramid's ceilings; outLen 0 drops
	// the decoder, 1 keeps one step, and most pairs have outLen != inLen.
	lengths := [][2]int{{1, 0}, {1, 1}, {5, 0}, {5, 1}, {6, 6}, {7, 19},
		{13, 1}, {20, 0}, {21, 44}, {33, 8}, {50, 50}}
	covered := 0
	for _, m := range dnn.All() {
		if !m.IsRNN() {
			continue
		}
		ref, ok := references[m.Name]
		if !ok {
			t.Fatalf("%s has no reference unroll", m.Name)
		}
		covered++
		for _, b := range dnn.BatchSizes {
			for _, n := range lengths {
				in, out := n[0], n[1]
				name := fmt.Sprintf("%s b%d in%d out%d", m.Name, b, in, out)
				want := ref(in, out)
				if got := flatten(m.Runs(in, out)); !slices.Equal(got, want) {
					t.Fatalf("%s: runs flatten to %d layers, reference has %d (or they differ)",
						name, len(got), len(want))
				}

				pw, err := warm.Compile(m, b, in, out)
				if err != nil {
					t.Fatal(err)
				}
				pf, err := newCompiler(t).Compile(m, b, in, out)
				if err != nil {
					t.Fatal(err)
				}
				flat := &dnn.Model{Name: m.Name, Class: dnn.CNN, Static: want}
				pr, err := newCompiler(t).Compile(flat, b, in, out)
				if err != nil {
					t.Fatal(err)
				}
				w, f, r := checksOf(pw), checksOf(pf), checksOf(pr)
				if w != r || f != r {
					t.Errorf("%s: compiled programs differ:\n warm  %+v\n fresh %+v\n ref   %+v",
						name, w, f, r)
				}

				if got, want := an.EstimateWithOutLen(m, b, in, out), an.EstimateLayers(want, b); got != want {
					t.Errorf("%s: estimate %d, reference %d", name, got, want)
				}
				var macs, maxOut int64
				for _, l := range want {
					macs += l.MACs(b)
					maxOut = max(maxOut, dnn.Bytes(l.OutputElems(b)))
				}
				if got := m.TotalMACs(b, in, out); got != macs {
					t.Errorf("%s: TotalMACs %d, reference %d", name, got, macs)
				}
				if got, want := m.TotalWeightBytes(in, out), refWeightBytes(want); got != want {
					t.Errorf("%s: TotalWeightBytes %d, reference %d", name, got, want)
				}
				if got := m.MaxOutputBytes(b, in, out); got != maxOut {
					t.Errorf("%s: MaxOutputBytes %d, reference %d", name, got, maxOut)
				}
			}
			// Estimate itself unrolls to the regression's predicted
			// length.
			p, err := lib.Predictor(m.SeqProfile)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range []int{m.MinInLen, m.MinInLen + 1, m.MaxInLen} {
				got, err := an.Estimate(m, b, in)
				if err != nil {
					t.Fatal(err)
				}
				if want := an.EstimateLayers(ref(in, p.Regression.Predict(in)), b); got != want {
					t.Errorf("%s b%d in%d: Estimate %d, reference %d", m.Name, b, in, got, want)
				}
			}
		}
	}
	if covered != len(references) {
		t.Errorf("covered %d RNNs, %d references", covered, len(references))
	}
	// A CNN is one run of its static layers, and its names are unique, so
	// the name-deduplicated weight footprint is the plain sum.
	for _, m := range dnn.All() {
		if m.IsRNN() {
			continue
		}
		if got := flatten(m.Runs(3, 4)); !slices.Equal(got, m.Static) {
			t.Errorf("%s: runs are not its static layers", m.Name)
		}
		if got, want := m.TotalWeightBytes(0, 0), refWeightBytes(m.Static); got != want {
			t.Errorf("%s: TotalWeightBytes %d, reference %d", m.Name, got, want)
		}
	}
}
