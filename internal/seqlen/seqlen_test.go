package seqlen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestProfilesCoverSuite(t *testing.T) {
	profs := Profiles()
	for _, want := range []string{"mt-de", "mt-ko", "mt-zh", "asr", "sa"} {
		p, ok := profs[want]
		if !ok {
			t.Fatalf("missing profile %s", want)
		}
		if p.MinIn <= 0 || p.MaxIn < p.MinIn {
			t.Errorf("%s: bad input bounds [%d,%d]", want, p.MinIn, p.MaxIn)
		}
		if !p.Linear && p.Ratio <= 0 {
			t.Errorf("%s: non-positive ratio", want)
		}
	}
	if !profs["sa"].Linear {
		t.Error("sentiment analysis must be the linear profile (Figure 8(b))")
	}
	// Figure 9's per-language shapes: German near 1:1, Korean below,
	// Chinese characters far above, ASR compressive.
	if !(profs["mt-zh"].Ratio > 3 && profs["mt-ko"].Ratio < 1 && profs["asr"].Ratio < 1) {
		t.Error("profile ratios do not match Figure 9's qualitative shape")
	}
}

// mustCorpus builds a corpus, failing the test on an error.
func mustCorpus(t testing.TB, pair LanguagePair, n int, rng *rand.Rand) *Corpus {
	t.Helper()
	c, err := BuildCorpus(pair, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// outLengths returns the output lengths a corpus drew for one input
// length, in draw order (empty if none was).
func outLengths(c *Corpus, inLen int) []int {
	outs := c.outsFor(inLen)
	xs := make([]int, len(outs))
	for i, o := range outs {
		xs[i] = int(o)
	}
	return xs
}

func TestCorpusShape(t *testing.T) {
	rng := stats.NewRNG(1, 2)
	pair := Profiles()["mt-de"]
	c := mustCorpus(t, pair, 1500, rng)
	if len(c.ins) != 1500 || len(c.outs) != 1500 {
		t.Fatalf("corpus size %d inputs, %d outputs", len(c.ins), len(c.outs))
	}
	for _, in := range c.ins {
		if int(in) < pair.MinIn || int(in) > pair.MaxIn {
			t.Fatalf("input length %d outside profile bounds", in)
		}
	}
	for _, o := range c.outs {
		if o < 1 {
			t.Fatalf("non-positive output length")
		}
	}
	// Interquartile range should be narrow relative to the median
	// (Figure 9's central claim).
	sum := c.SummaryFor(int(c.ins[0]))
	if sum.N > 10 && sum.IQR() > sum.Median*0.5 {
		t.Errorf("IQR %0.f too wide vs median %.0f", sum.IQR(), sum.Median)
	}
}

func TestLinearProfileSampling(t *testing.T) {
	rng := stats.NewRNG(3, 4)
	c := mustCorpus(t, Profiles()["sa"], 200, rng)
	for in := range c.InputLengths() {
		for _, o := range outLengths(c, in) {
			if o != in {
				t.Fatalf("linear profile produced out %d for in %d", o, in)
			}
		}
	}
	r, err := BuildRegression(c)
	if err != nil {
		t.Fatal(err)
	}
	for in := 1; in <= 60; in++ {
		if r.Predict(in) != in {
			t.Fatalf("linear regression Predict(%d) = %d", in, r.Predict(in))
		}
	}
}

func TestRegressionGeomeanAndFallback(t *testing.T) {
	pair := LanguagePair{Name: "x", Ratio: 2, Spread: 0, MinIn: 10, MaxIn: 10}
	c := mustCorpus(t, pair, 50, stats.NewRNG(5, 6))
	r, err := BuildRegression(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Predict(10); got != 20 {
		t.Errorf("Predict(10) = %d, want 20 (zero-spread ratio 2)", got)
	}
	// Unprofiled input lengths snap to the nearest profiled neighbor.
	if got := r.Predict(3); got != 20 {
		t.Errorf("Predict(below range) = %d, want nearest profiled 20", got)
	}
	if got := r.Predict(99); got != 20 {
		t.Errorf("Predict(above range) = %d, want nearest profiled 20", got)
	}
}

func TestRegressionNearestNeighborChoice(t *testing.T) {
	// Hand-build a corpus with two input lengths, distinct outputs.
	pair := LanguagePair{Name: "n", Ratio: 1, MinIn: 1, MaxIn: 100}
	c := bucket(pair, []uint16{10, 20, 10, 20, 20, 10}, []uint16{30, 80, 30, 80, 80, 30})
	r, err := BuildRegression(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Predict(12); got != 30 {
		t.Errorf("Predict(12) = %d, want 30 (closer to 10)", got)
	}
	if got := r.Predict(19); got != 80 {
		t.Errorf("Predict(19) = %d, want 80 (closer to 20)", got)
	}
	if got := r.Predict(15); got != 30 {
		t.Errorf("Predict(15) = %d, want 30 (a tie snaps to the shorter input)", got)
	}
}

func TestBuildRegressionEmptyCorpus(t *testing.T) {
	pair := LanguagePair{Name: "e", Ratio: 1, MinIn: 1, MaxIn: 5}
	c := mustCorpus(t, pair, 0, stats.NewRNG(1, 1))
	if _, err := BuildRegression(c); err == nil {
		t.Error("empty corpus should fail regression build")
	}
}

func TestLibrary(t *testing.T) {
	lib, err := NewLibrary(42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.Predictor("nope"); err == nil {
		t.Error("unknown profile should error")
	}
	rng := stats.NewRNG(7, 8)
	for profile := range Profiles() {
		in, actual, predicted, err := lib.SampleInstance(profile, rng)
		if err != nil {
			t.Fatal(err)
		}
		if in <= 0 || actual <= 0 || predicted <= 0 {
			t.Errorf("%s: non-positive sample (%d,%d,%d)", profile, in, actual, predicted)
		}
		p, _ := lib.Predictor(profile)
		// The actual length must come from the profiled set for that
		// input length (Section VI methodology).
		found := false
		for _, o := range outLengths(p.Corpus(), in) {
			if o == actual {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: sampled actual %d not in profiled outputs for in=%d", profile, actual, in)
		}
	}
}

func TestLibraryDeterministicAcrossConstruction(t *testing.T) {
	a, err := NewLibrary(99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLibrary(99)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := a.Predictor("mt-zh")
	pb, _ := b.Predictor("mt-zh")
	ca, cb := pa.Corpus(), pb.Corpus()
	if !slices.Equal(ca.ins, cb.ins) || !slices.Equal(ca.outs, cb.outs) || !slices.Equal(ca.off, cb.off) {
		t.Fatal("same-seed libraries built different corpora")
	}
}

// Property: predictions are positive, roughly proportional to input
// length, and within the whiskers of the profiled distribution.
func TestPredictionWithinProfiledRangeProperty(t *testing.T) {
	lib, err := NewLibrary(1234)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := lib.Predictor("mt-de")
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed, 1)
		in, _, predicted, err := lib.SampleInstance("mt-de", rng)
		if err != nil {
			return false
		}
		outs := outLengths(p.Corpus(), in)
		lo, hi := outs[0], outs[0]
		for _, o := range outs {
			if o < lo {
				lo = o
			}
			if o > hi {
				hi = o
			}
		}
		return predicted >= lo && predicted <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The reference: BuildCorpus and BuildRegression as they were before the
// corpus became flat arrays — a slice of samples plus a map of output
// lists, and a map-backed table searched with sort.SearchInts. The flat
// corpus must draw, bucket, summarize, predict and sample exactly as it.

type refSample struct {
	InLen, OutLen int
}

type refCorpus struct {
	Pair    LanguagePair
	Samples []refSample
	byIn    map[int][]int
}

func buildCorpusRef(pair LanguagePair, n int, rng *rand.Rand) *refCorpus {
	c := &refCorpus{Pair: pair, byIn: make(map[int][]int)}
	for i := 0; i < n; i++ {
		in := pair.MinIn + rng.IntN(pair.MaxIn-pair.MinIn+1)
		out := pair.sampleOut(in, rng)
		c.Samples = append(c.Samples, refSample{InLen: in, OutLen: out})
		c.byIn[in] = append(c.byIn[in], out)
	}
	return c
}

func (c *refCorpus) SummaryFor(inLen int) stats.Summary {
	outs := c.byIn[inLen]
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = float64(o)
	}
	return stats.Summarize(xs)
}

type refRegression struct {
	pair   LanguagePair
	table  map[int]int
	inLens []int
}

func buildRegressionRef(c *refCorpus) (*refRegression, error) {
	r := &refRegression{pair: c.Pair, table: make(map[int]int)}
	if c.Pair.Linear {
		return r, nil
	}
	for in, outs := range c.byIn {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = float64(o)
		}
		gm, err := stats.GeoMean(xs)
		if err != nil {
			return nil, fmt.Errorf("seqlen: profile %q input %d: %w", c.Pair.Name, in, err)
		}
		r.table[in] = int(math.Round(gm))
		r.inLens = append(r.inLens, in)
	}
	if len(r.inLens) == 0 {
		return nil, fmt.Errorf("seqlen: empty corpus for profile %q", c.Pair.Name)
	}
	sort.Ints(r.inLens)
	return r, nil
}

func (r *refRegression) Predict(inLen int) int {
	if r.pair.Linear {
		return inLen
	}
	if out, ok := r.table[inLen]; ok {
		return out
	}
	i := sort.SearchInts(r.inLens, inLen)
	switch {
	case i == 0:
		return r.table[r.inLens[0]]
	case i >= len(r.inLens):
		return r.table[r.inLens[len(r.inLens)-1]]
	default:
		lo, hi := r.inLens[i-1], r.inLens[i]
		if inLen-lo <= hi-inLen {
			return r.table[lo]
		}
		return r.table[hi]
	}
}

// sampleInstanceRef is SampleInstance over the reference corpus.
func sampleInstanceRef(c *refCorpus, r *refRegression, rng *rand.Rand) (inLen, actualOut, predictedOut int) {
	s := c.Samples[rng.IntN(len(c.Samples))]
	candidates := c.byIn[s.InLen]
	return s.InLen, candidates[rng.IntN(len(candidates))], r.Predict(s.InLen)
}

// checkCorpusMatchesReference builds one corpus and its regression both
// ways from the same seed and compares everything a caller can observe.
func checkCorpusMatchesReference(t *testing.T, pair LanguagePair, n int, seed uint64) {
	t.Helper()
	c, err := BuildCorpus(pair, n, stats.NewRNG(seed, 1))
	ref := buildCorpusRef(pair, n, stats.NewRNG(seed, 1))
	if err != nil {
		for _, s := range ref.Samples {
			if s.OutLen > math.MaxUint16 {
				return // outside the 16-bit corpus, reported as an error
			}
		}
		t.Fatalf("%+v: BuildCorpus: %v", pair, err)
	}
	if len(c.ins) != len(ref.Samples) {
		t.Fatalf("%+v: %d inputs, reference %d", pair, len(c.ins), len(ref.Samples))
	}
	for i, s := range ref.Samples {
		if int(c.ins[i]) != s.InLen {
			t.Fatalf("%+v: input %d is %d, reference %d", pair, i, c.ins[i], s.InLen)
		}
	}
	var refIns []int
	for in := range ref.byIn {
		refIns = append(refIns, in)
	}
	sort.Ints(refIns)
	if got := slices.Collect(c.InputLengths()); !slices.Equal(got, refIns) {
		t.Fatalf("%+v: InputLengths %v, reference %v", pair, got, refIns)
	}
	for in := pair.MinIn - 10; in <= pair.MaxIn+10; in++ {
		if got, want := outLengths(c, in), ref.byIn[in]; !slices.Equal(got, want) {
			t.Fatalf("%+v: outputs for input %d are %v, reference %v", pair, in, got, want)
		}
		if got, want := c.SummaryFor(in), ref.SummaryFor(in); got != want {
			t.Fatalf("%+v: SummaryFor(%d) = %+v, reference %+v", pair, in, got, want)
		}
	}
	r, err := BuildRegression(c)
	refR, refErr := buildRegressionRef(ref)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("%+v: BuildRegression error %v, reference %v", pair, err, refErr)
	}
	if err != nil {
		return
	}
	for in := pair.MinIn - 10; in <= pair.MaxIn+10; in++ {
		if got, want := r.Predict(in), refR.Predict(in); got != want {
			t.Fatalf("%+v: Predict(%d) = %d, reference %d", pair, in, got, want)
		}
	}
	lib := &Library{predictors: map[string]*Predictor{"p": {corpus: c, regression: r}}}
	rng, refRNG := stats.NewRNG(seed, 2), stats.NewRNG(seed, 2)
	if len(ref.Samples) == 0 {
		if _, _, _, err := lib.SampleInstance("p", rng); err == nil {
			t.Fatalf("%+v: SampleInstance drew from an empty corpus", pair)
		}
		return
	}
	for i := 0; i < 1000; i++ {
		in, actual, predicted, err := lib.SampleInstance("p", rng)
		if err != nil {
			t.Fatal(err)
		}
		wantIn, wantActual, wantPredicted := sampleInstanceRef(ref, refR, refRNG)
		if in != wantIn || actual != wantActual || predicted != wantPredicted {
			t.Fatalf("%+v: draw %d = (%d,%d,%d), reference (%d,%d,%d)",
				pair, i, in, actual, predicted, wantIn, wantActual, wantPredicted)
		}
	}
	if rng.Uint64() != refRNG.Uint64() {
		t.Fatalf("%+v: SampleInstance consumed the RNG differently from the reference", pair)
	}
}

// TestCorpusMatchesReference runs the reference check over every
// built-in profile at the library's corpus size and seeds.
func TestCorpusMatchesReference(t *testing.T) {
	for name, pair := range Profiles() {
		for _, seed := range []uint64{1, 2, 42, 0xA11CE} {
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) {
				checkCorpusMatchesReference(t, pair, DefaultCorpusSize, seed)
			})
		}
	}
}

// FuzzCorpusMatchesReference varies the seed and the LanguagePair shape
// — ratio, spread, outlier probability and scale, input bounds up to a
// few hundred, and linearity — and checks the flat corpus against the
// map-based reference.
func FuzzCorpusMatchesReference(f *testing.F) {
	for _, pair := range Profiles() {
		f.Add(uint64(1), pair.Ratio, pair.Spread, pair.OutlierProb, pair.OutlierScale,
			uint16(pair.MinIn), uint16(pair.MaxIn-pair.MinIn), pair.Linear, uint16(1500))
	}
	f.Add(uint64(7), 3.0, 0.4, 0.5, 3.0, uint16(0), uint16(299), false, uint16(40)) // sparse: gaps and ties
	f.Add(uint64(9), 0.01, 0.0, 0.0, 1.0, uint16(290), uint16(0), false, uint16(3))
	f.Add(uint64(11), 1.0, 0.0, 0.0, 1.0, uint16(142), uint16(87), true, uint16(0)) // empty
	f.Fuzz(func(t *testing.T, seed uint64, ratio, spread, outlierProb, outlierScale float64,
		minIn, span uint16, linear bool, n uint16) {
		finite := func(x, lo, hi float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return lo
			}
			return lo + math.Mod(math.Abs(x), hi-lo)
		}
		pair := LanguagePair{
			Name:         "fuzz",
			Ratio:        finite(ratio, 0.01, 8),
			Spread:       finite(spread, 0, 0.5),
			OutlierProb:  finite(outlierProb, 0, 1),
			OutlierScale: finite(outlierScale, 1, 4),
			MinIn:        int(minIn % 300),
			Linear:       linear,
		}
		pair.MaxIn = pair.MinIn + int(span%300)
		checkCorpusMatchesReference(t, pair, int(n%3000), seed)
	})
}

// TestBuildCorpusRejectsOutOfRange covers the 16-bit storage limits: an
// empty or oversized input range, and an output too long to store.
func TestBuildCorpusRejectsOutOfRange(t *testing.T) {
	for _, pair := range []LanguagePair{
		{Name: "inverted", Ratio: 1, MinIn: 10, MaxIn: 5},
		{Name: "negative", Ratio: 1, MinIn: -1, MaxIn: 5},
		{Name: "wide", Ratio: 1, MinIn: 1, MaxIn: math.MaxUint16 + 1},
		{Name: "long", Ratio: 1e4, MinIn: 100, MaxIn: 100},
	} {
		if _, err := BuildCorpus(pair, 10, stats.NewRNG(1, 1)); err == nil {
			t.Errorf("%s: BuildCorpus accepted %+v", pair.Name, pair)
		}
	}
}

// TestNewLibraryAllocs pins what one library build costs: five corpora,
// their regressions and the predictor map in at most 128 KB and 150
// heap objects.
func TestNewLibraryAllocs(t *testing.T) {
	build := func() {
		if _, err := NewLibrary(42); err != nil {
			t.Fatal(err)
		}
	}
	build()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	objects := (after.Mallocs - before.Mallocs) / runs
	t.Logf("NewLibrary: %d B in %d objects", bytes, objects)
	if bytes > 128<<10 || objects > 150 {
		t.Errorf("NewLibrary allocates %d B in %d objects; want at most %d B and 150", bytes, objects, 128<<10)
	}
}
