// Package seqlen implements PREMA's sequence-length prediction substrate
// (Section V-B, Figures 8-9): profile-driven characterization of the
// relationship between an RNN's statically-known input sequence length and
// its input-dependent, dynamically-determined unrolled output length.
//
// The paper builds its characterization graphs by running 1500 inference
// tests per application through Google Translate / a speech API. Those
// corpora are proprietary, so this package synthesizes corpora with the
// same per-language shape: a strong central correlation (narrow 25-75%
// interquartile band) with occasional outliers. The regression model is
// then built exactly as the paper describes — a software lookup table
// indexed by input length returning the geometric mean of the profiled
// output lengths — and actual task instances sample their true unrolled
// length from the same profile, as in Section VI's evaluation methodology.
//
// Both are flat arrays of 16-bit lengths. A Corpus keeps its input
// lengths in draw order and its output lengths bucketed by input length
// (a counting sort over the profile's input range, each bucket in draw
// order), so a draw indexes two slices and no map. A Regression is a
// dense table over the profiled input range with the nearest-neighbour
// fallback already filled in. A Library builds them once and is
// read-only after NewLibrary: the experiment engine's workers share one.
package seqlen

import (
	"fmt"
	"iter"
	"math"
	"math/rand/v2"

	"repro/internal/stats"
)

// LanguagePair describes the shape of one characterization profile: a
// central output/input ratio, a multiplicative spread for the bulk of the
// distribution, and a small probability of far outliers (e.g. idiomatic
// translations), mirroring the min-max whiskers of Figure 9.
type LanguagePair struct {
	// Name identifies the profile ("mt-de", "mt-ko", "mt-zh", "asr",
	// "sa").
	Name string
	// Ratio is the central output/input length ratio.
	Ratio float64
	// Spread is the relative standard deviation of the bulk
	// distribution (lognormal sigma).
	Spread float64
	// OutlierProb is the probability that a sample lands far outside
	// the interquartile band.
	OutlierProb float64
	// OutlierScale multiplies/divides the central value for outliers.
	OutlierScale float64
	// MinIn and MaxIn bound the profiled input lengths.
	MinIn, MaxIn int
	// Linear marks applications whose output length is statically
	// determined by the input length (Figure 8(b)): sentiment
	// analysis, language models. These need no regression at all.
	Linear bool
}

// Profiles returns the built-in characterization shapes for the benchmark
// suite, calibrated to the axes of Figure 9:
//
//	mt-de: output ~ 1.05x input (5..50 -> up to ~75 with outliers)
//	mt-ko: output ~ 0.75x input (agglutinative; 5..50 -> up to ~50)
//	mt-zh: output ~ 5.5x input (character-level; 5..50 -> up to ~350)
//	asr:   output ~ 0.4x input (audio frames -> text tokens; 20..100)
//	sa:    output == input (linear, Figure 8(b))
func Profiles() map[string]LanguagePair {
	return map[string]LanguagePair{
		"mt-de": {Name: "mt-de", Ratio: 1.05, Spread: 0.08, OutlierProb: 0.02, OutlierScale: 1.6, MinIn: 5, MaxIn: 50},
		"mt-ko": {Name: "mt-ko", Ratio: 0.75, Spread: 0.12, OutlierProb: 0.02, OutlierScale: 1.6, MinIn: 5, MaxIn: 50},
		"mt-zh": {Name: "mt-zh", Ratio: 5.5, Spread: 0.08, OutlierProb: 0.02, OutlierScale: 1.5, MinIn: 5, MaxIn: 50},
		"asr":   {Name: "asr", Ratio: 0.40, Spread: 0.12, OutlierProb: 0.02, OutlierScale: 1.5, MinIn: 20, MaxIn: 100},
		"sa":    {Name: "sa", Ratio: 1.0, MinIn: 5, MaxIn: 50, Linear: true},
	}
}

// Corpus is a profiled characterization dataset for one application — the
// synthetic stand-in for the paper's 1500 Google-Translate/LibriSpeech
// test sentences. It is read-only once built.
type Corpus struct {
	pair LanguagePair
	// ins holds every observation's input length, in draw order.
	ins []uint16
	// outs holds the observations' output lengths bucketed by input
	// length, ascending, each bucket in draw order: the outputs drawn for
	// input length in are outs[off[in-pair.MinIn]:off[in-pair.MinIn+1]].
	outs []uint16
	off  []int
}

// BuildCorpus draws n profiled observations from the pair's shape using
// the given RNG: per observation, an input length uniform over
// [MinIn, MaxIn], then its output length. Lengths are stored in 16 bits,
// so a pair whose input range or a drawn output leaves [0, 65535] is an
// error.
func BuildCorpus(pair LanguagePair, n int, rng *rand.Rand) (*Corpus, error) {
	if pair.MinIn < 0 || pair.MaxIn < pair.MinIn || pair.MaxIn > math.MaxUint16 {
		return nil, fmt.Errorf("seqlen: profile %q input lengths [%d,%d] outside [0,%d]",
			pair.Name, pair.MinIn, pair.MaxIn, math.MaxUint16)
	}
	n = max(n, 0)
	span := pair.MaxIn - pair.MinIn + 1
	ins, outs := make([]uint16, n), make([]uint16, n)
	for i := range ins {
		in := pair.MinIn + rng.IntN(span)
		out := pair.sampleOut(in, rng)
		if out > math.MaxUint16 {
			return nil, fmt.Errorf("seqlen: profile %q drew output length %d, beyond %d",
				pair.Name, out, math.MaxUint16)
		}
		ins[i], outs[i] = uint16(in), uint16(out)
	}
	return bucket(pair, ins, outs), nil
}

// bucket builds a corpus from observations in draw order, each input
// length within [pair.MinIn, pair.MaxIn]: it keeps ins and counting-sorts
// the outputs into buckets by input length.
func bucket(pair LanguagePair, ins, outs []uint16) *Corpus {
	span := pair.MaxIn - pair.MinIn + 1
	c := &Corpus{pair: pair, ins: ins, outs: make([]uint16, len(outs)), off: make([]int, span+1)}
	for _, in := range ins {
		c.off[int(in)-pair.MinIn+1]++
	}
	// off[k] becomes bucket k's start, then serves as its write cursor,
	// which leaves it at bucket k+1's start; shifting the cursors up one
	// slot restores the starts.
	for k := 1; k <= span; k++ {
		c.off[k] += c.off[k-1]
	}
	for i, in := range ins {
		k := int(in) - pair.MinIn
		c.outs[c.off[k]] = outs[i]
		c.off[k]++
	}
	copy(c.off[1:], c.off[:span])
	c.off[0] = 0
	return c
}

// sampleOut draws one output length for the given input length.
func (p LanguagePair) sampleOut(inLen int, rng *rand.Rand) int {
	if p.Linear {
		return inLen
	}
	center := p.Ratio * float64(inLen)
	out := center * math.Exp(rng.NormFloat64()*p.Spread)
	if rng.Float64() < p.OutlierProb {
		if rng.Float64() < 0.5 {
			out = center * p.OutlierScale
		} else {
			out = center / p.OutlierScale
		}
	}
	o := int(math.Round(out))
	if o < 1 {
		o = 1
	}
	return o
}

// outsFor returns the output lengths drawn for one input length (empty
// when the input length was never drawn).
func (c *Corpus) outsFor(inLen int) []uint16 {
	k := inLen - c.pair.MinIn
	if k < 0 || k+1 >= len(c.off) {
		return nil
	}
	return c.outs[c.off[k]:c.off[k+1]]
}

// InputLengths yields every input length the corpus observed, ascending.
func (c *Corpus) InputLengths() iter.Seq[int] {
	return func(yield func(int) bool) {
		for k := 0; k+1 < len(c.off); k++ {
			if c.off[k+1] > c.off[k] && !yield(c.pair.MinIn+k) {
				return
			}
		}
	}
}

// SummaryFor returns the boxplot summary of output lengths for one input
// length — one x-position of Figure 9.
func (c *Corpus) SummaryFor(inLen int) stats.Summary {
	outs := c.outsFor(inLen)
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = float64(o)
	}
	return stats.Summarize(xs)
}

// Regression is the profile-driven lookup table of Section V-B: indexed by
// input sequence length (statically known before inference begins) and
// returning the geometric mean of the profiled unrolled lengths. Missing
// input lengths fall back to the nearest profiled neighbor, the shorter
// one on a tie.
//
// The table is dense: table[k] answers input length lo+k, from the
// shortest profiled input length to the longest, with every unprofiled
// entry already holding its neighbor's answer. Inputs outside that range
// read the nearer end. A linear profile needs no table.
type Regression struct {
	linear bool
	lo     int
	table  []uint16
}

// BuildRegression fits the lookup table from a corpus. Each distinct
// output length's logarithm is computed once, and each input length's
// logarithms are summed in draw order, as stats.GeoMean sums them.
func BuildRegression(c *Corpus) (*Regression, error) {
	if c.pair.Linear {
		return &Regression{linear: true}, nil
	}
	first, last := -1, -1
	for k := 0; k+1 < len(c.off); k++ {
		if c.off[k+1] > c.off[k] {
			if first < 0 {
				first = k
			}
			last = k
		}
	}
	if first < 0 {
		return nil, fmt.Errorf("seqlen: empty corpus for profile %q", c.pair.Name)
	}
	var maxOut uint16
	for _, o := range c.outs {
		maxOut = max(maxOut, o)
	}
	logs := make([]float64, int(maxOut)+1) // logs[o] = ln(o), -1 until computed
	for i := range logs {
		logs[i] = -1
	}
	r := &Regression{lo: c.pair.MinIn + first, table: make([]uint16, last-first+1)}
	prev := 0 // the last profiled table entry
	for k := range r.table {
		outs := c.outs[c.off[first+k]:c.off[first+k+1]]
		if len(outs) == 0 {
			continue
		}
		logSum := 0.0
		for _, o := range outs {
			if logs[o] < 0 {
				logs[o] = math.Log(float64(o))
			}
			logSum += logs[o]
		}
		r.table[k] = uint16(math.Round(math.Exp(logSum / float64(len(outs)))))
		for j := prev + 1; j < k; j++ {
			if j-prev <= k-j {
				r.table[j] = r.table[prev]
			} else {
				r.table[j] = r.table[k]
			}
		}
		prev = k
	}
	return r, nil
}

// Predict returns the estimated unrolled output length for an input
// length. Linear applications return the input length itself
// (Figure 8(b)); others consult the geomean lookup table, snapping to the
// nearest profiled input length when the exact one was never observed.
func (r *Regression) Predict(inLen int) int {
	if r.linear {
		return inLen
	}
	return int(r.table[min(max(inLen-r.lo, 0), len(r.table)-1)])
}

// Predictor bundles a corpus and its regression for one profile.
type Predictor struct {
	corpus     *Corpus
	regression *Regression
}

// Corpus returns the profile's characterization corpus.
func (p *Predictor) Corpus() *Corpus { return p.corpus }

// Regression returns the profile's lookup-table regression.
func (p *Predictor) Regression() *Regression { return p.regression }

// Library holds the per-profile predictors the scheduler consults and the
// samplers the workload generator uses. It is read-only after NewLibrary,
// so any number of goroutines may share it.
type Library struct {
	predictors map[string]*Predictor
}

// DefaultCorpusSize matches the paper's 1500 profiled sentences per
// application.
const DefaultCorpusSize = 1500

// NewLibrary builds corpora and regressions for every built-in profile
// with deterministic seeding.
func NewLibrary(seed uint64) (*Library, error) {
	lib := &Library{predictors: make(map[string]*Predictor)}
	for name, pair := range Profiles() {
		corpus, err := BuildCorpus(pair, DefaultCorpusSize, stats.NewRNG(seed, hashName(name)))
		if err != nil {
			return nil, err
		}
		reg, err := BuildRegression(corpus)
		if err != nil {
			return nil, err
		}
		lib.predictors[name] = &Predictor{corpus: corpus, regression: reg}
	}
	return lib, nil
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Predictor returns the predictor for a profile name.
func (l *Library) Predictor(profile string) (*Predictor, error) {
	p, ok := l.predictors[profile]
	if !ok {
		return nil, fmt.Errorf("seqlen: unknown profile %q", profile)
	}
	return p, nil
}

// SampleInstance draws one task instance for an RNN profile: a random
// profiled input length and an actual unrolled output length drawn from
// the outputs observed for that input length (Section VI's methodology),
// together with the regression's predicted length.
func (l *Library) SampleInstance(profile string, rng *rand.Rand) (inLen, actualOut, predictedOut int, err error) {
	p, err := l.Predictor(profile)
	if err != nil {
		return 0, 0, 0, err
	}
	c := p.corpus
	if len(c.ins) == 0 {
		return 0, 0, 0, fmt.Errorf("seqlen: empty corpus for %q", profile)
	}
	inLen = int(c.ins[rng.IntN(len(c.ins))])
	candidates := c.outsFor(inLen)
	actualOut = int(candidates[rng.IntN(len(candidates))])
	predictedOut = p.regression.Predict(inLen)
	return inLen, actualOut, predictedOut, nil
}
