package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{5}); got != 0 {
		t.Errorf("StdDev of single value = %v, want 0", got)
	}
	// Population stddev of {2,4,4,4,5,5,7,9} is 2.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestGeoMean(t *testing.T) {
	got, err := GeoMean([]float64{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, math.Sqrt(8), 1e-9) {
		t.Errorf("GeoMean(1,8) = %v, want sqrt(8)", got)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("GeoMean(empty) should error")
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Error("GeoMean with negative value should error")
	}
	if _, err := GeoMean([]float64{0}); err == nil {
		t.Error("GeoMean with zero should error")
	}
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {110, 5}, {-5, 1},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty slice should be NaN")
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile of singleton = %v, want 7", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

// Property: for any sample, percentiles are monotone in p and bounded by
// min/max.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := Min(xs), Max(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("bad summary: %+v", s)
	}
	if !almostEqual(s.Mean, 2.5, 1e-12) || !almostEqual(s.Median, 2.5, 1e-12) {
		t.Errorf("bad mean/median: %+v", s)
	}
	if s.IQR() < 0 {
		t.Errorf("negative IQR: %v", s.IQR())
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Errorf("empty summary N = %d", empty.N)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp(5,0,1) = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp(-5,0,1) = %v", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp(0.5,0,1) = %v", got)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := CeilDiv64(int64(c.a), int64(c.b)); got != int64(c.want) {
			t.Errorf("CeilDiv64(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnZeroDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv(1,0) should panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestNewRNGDeterministic(t *testing.T) {
	a, b := NewRNG(1, 2), NewRNG(1, 2)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(1, 3)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(1, 2).Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different-seed RNGs produced identical streams")
	}
}

// Property: Summarize quartiles are ordered min <= p25 <= median <= p75 <= max.
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		ordered := sort.Float64sAreSorted([]float64{s.Min, s.P25, s.Median, s.P75, s.Max})
		return ordered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// summarizeRef is Summarize as it was before it sorted once: each
// quartile copies and sorts the whole sample through Percentile.
func summarizeRef(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Min:    Min(xs),
		P25:    Percentile(xs, 25),
		Median: Percentile(xs, 50),
		P75:    Percentile(xs, 75),
		Max:    Max(xs),
	}
}

// TestSummarizeMatchesPercentileForm pins the sort-once Summarize to the
// three-Percentile form bit for bit, on random samples of random sizes
// (a single sample and heavy duplication included), and checks that it
// leaves its input in place.
func TestSummarizeMatchesPercentileForm(t *testing.T) {
	rng := NewRNG(20, 1)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.IntN(200)
		xs := make([]float64, n)
		distinct := 1 + rng.IntN(n)
		for i := range xs {
			xs[i] = float64(rng.IntN(distinct)) * rng.Float64() * 1e3
			if trial%3 == 0 {
				xs[i] = math.Round(xs[i] / 100) // many duplicates
			}
		}
		orig := append([]float64(nil), xs...)
		got, want := Summarize(xs), summarizeRef(xs)
		if got != want {
			t.Fatalf("trial %d (n=%d): Summarize %+v, three-Percentile form %+v", trial, n, got, want)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("trial %d: Summarize reordered its input", trial)
			}
		}
	}
}

// TestPercentileSortedMatchesPercentile reads every percentile of one
// SortedCopy and checks it against Percentile's copy-and-sort, and that
// a kept buffer large enough is reused rather than reallocated.
func TestPercentileSortedMatchesPercentile(t *testing.T) {
	rng := NewRNG(20, 2)
	buf := make([]float64, 0, 64)
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.IntN(64))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		sorted := SortedCopy(buf, xs)
		if &sorted[0] != &buf[:1][0] {
			t.Fatal("SortedCopy reallocated a buffer with room for the sample")
		}
		for p := -10.0; p <= 110; p += 2.5 {
			if got, want := PercentileSorted(sorted, p), Percentile(xs, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d p=%v: PercentileSorted %v, Percentile %v", trial, p, got, want)
			}
		}
	}
	if !math.IsNaN(PercentileSorted(nil, 50)) {
		t.Error("PercentileSorted of an empty slice should be NaN")
	}
}
