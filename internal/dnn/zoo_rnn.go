package dnn

import "fmt"

// This file encodes the RNN benchmark topologies of Section III:
// RNN-SA (sentiment analysis, linear input/output length relationship),
// RNN-MT1/MT2 (seq2seq machine translation, non-linear relationship), and
// RNN-ASR (a "Listen, Attend and Spell"-style speech recognizer).
//
// Each constructor builds the model's bodies once: the layers of one
// encoder timestep, of one decoder step with its attention and
// projection, or of one pyramid level. Its Unroll returns a concrete
// (input length, output length) instance as runs of those bodies, e.g.
// RNN-MT's encoder step x inLen then its decoder step x outLen, so an
// instance costs a few runs whatever its lengths. The actual output
// length of a task instance is sampled from the seqlen profile named by
// SeqProfile, while PREMA's predictor uses the regression lookup table
// built from the same profile (Section V-B, Figure 9).

// lstmStack appends the nLayers LSTM cell-steps of one timestep.
// The first layer consumes inDim, subsequent layers consume hidden.
// Layer names are timestep-invariant ("enc.l0", "enc.l1", ...) because the
// cell weights are shared across the unrolled steps; the profile-based
// predictor keys on the name.
func lstmStack(layers []Layer, prefix string, nLayers, hidden, inDim int) []Layer {
	for l := 0; l < nLayers; l++ {
		d := hidden
		if l == 0 {
			d = inDim
		}
		layers = append(layers, NewLSTM(fmt.Sprintf("%s.l%d", prefix, l), hidden, d))
	}
	return layers
}

// runs returns the given runs minus those repeated zero times, so every
// run an UnrollFunc returns executes.
func runs(rs ...Run) []Run {
	out := rs[:0]
	for _, r := range rs {
		if r.Times > 0 {
			out = append(out, r)
		}
	}
	return out
}

// SentimentAnalysis returns RNN-SA: a 2-layer LSTM (hidden 512) over the
// input sequence followed by a small classifier. Its output sequence
// length equals its input length (Figure 8(b)), so prediction is trivial.
func SentimentAnalysis() *Model {
	const (
		hidden = 512
		embed  = 512
		stack  = 2
	)
	enc := lstmStack(nil, "enc", stack, hidden, embed)
	cls := []Layer{NewFC("cls", hidden, 2, false)}
	return &Model{
		Name: "RNN-SA", Class: RNN,
		// Linear RNN: recurrence length == input length; outLen is
		// ignored by construction (Figure 8(b)).
		Unroll: func(inLen, _ int) []Run {
			return runs(Run{enc, inLen}, Run{cls, 1})
		},
		SeqProfile: "sa",
		MinInLen:   5, MaxInLen: 50,
	}
}

// machineTranslation builds a seq2seq encoder/decoder LSTM with a
// per-decoder-step attention context and vocabulary projection. profile
// selects the target-language length characterization; hidden/vocab size
// the model so its end-to-end latency stays in the paper's 0.5-45 ms band
// (Section IV-D) despite the widely different unrolled lengths of the
// target languages.
func machineTranslation(name, profile string, stack, hidden, vocab int) *Model {
	embed := hidden
	enc := lstmStack(nil, "enc", stack, hidden, embed)
	// Attention context combine and vocabulary projection per generated
	// token (seq2seq decoding, Figure 8(c)).
	dec := append(lstmStack(nil, "dec", stack, hidden, embed),
		NewFC("attn", 2*hidden, hidden, true),
		NewFC("proj", hidden, vocab, false),
	)
	return &Model{
		Name: name, Class: RNN,
		Unroll: func(inLen, outLen int) []Run {
			return runs(Run{enc, inLen}, Run{dec, outLen})
		},
		SeqProfile: profile,
		MinInLen:   5, MaxInLen: 50,
	}
}

// TranslationDE returns RNN-MT1, an English-to-German translation service
// with a word-level vocabulary (near-linear output/input length ratio,
// Figure 9(a)).
func TranslationDE() *Model {
	return machineTranslation("RNN-MT1", "mt-de", 2, 768, 16000)
}

// TranslationZH returns RNN-MT2, an English-to-Chinese translation service
// with a character-level decoder (strongly super-linear output lengths,
// Figure 9(c)); the smaller per-step cell compensates for the much longer
// unrolled decode.
func TranslationZH() *Model {
	return machineTranslation("RNN-MT2", "mt-zh", 2, 512, 4096)
}

// TranslationKO returns an English-to-Korean variant (Figure 9(b)); it is
// not part of the default 8-model suite but is available for sensitivity
// studies, mirroring the paper's random choice among DE/KO/ZH.
func TranslationKO() *Model {
	return machineTranslation("RNN-MT-KO", "mt-ko", 2, 768, 16000)
}

// SpeechRecognition returns RNN-ASR, a "Listen, Attend and Spell"-style
// model: a 3-layer pyramidal bidirectional LSTM encoder (hidden 512, time
// resolution halved per layer) and a 2-layer attention decoder emitting
// characters. Audio input lengths span 20-100 frames (Figure 9(d)).
func SpeechRecognition() *Model {
	const (
		hidden  = 512
		featDim = 80
		charVoc = 30
	)
	// Pyramidal encoder: level l runs ceil(inLen / 2^l) steps and, above
	// level 0, consumes the concatenation of two lower-level outputs.
	var levels [3][]Layer
	inDim := featDim
	for l := range levels {
		// Bidirectional: forward and backward cells.
		levels[l] = []Layer{
			NewLSTM(fmt.Sprintf("enc.l%d.fw", l), hidden, inDim),
			NewLSTM(fmt.Sprintf("enc.l%d.bw", l), hidden, inDim),
		}
		inDim = 4 * hidden // concat of 2 timesteps x 2 directions
	}
	dec := append(lstmStack(nil, "dec", 2, hidden, hidden),
		NewFC("attn", 2*hidden, hidden, true),
		NewFC("proj", hidden, charVoc, false),
	)
	return &Model{
		Name: "RNN-ASR", Class: RNN,
		Unroll: func(inLen, outLen int) []Run {
			return runs(
				Run{levels[0], inLen},
				Run{levels[1], (inLen + 1) / 2},
				Run{levels[2], (inLen + 3) / 4},
				Run{dec, outLen},
			)
		},
		SeqProfile: "asr",
		MinInLen:   20, MaxInLen: 100,
	}
}
