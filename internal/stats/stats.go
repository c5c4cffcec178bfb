// Package stats provides the small numerical toolkit shared across the
// PREMA reproduction: deterministic random number generation, summary
// statistics, percentiles, and geometric means.
//
// Everything in the simulator is seeded explicitly so that each experiment
// is reproducible run-to-run; this package is the single place that owns
// RNG construction.
package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// NewRNG returns a deterministic PCG-backed random source for the given
// seed pair. All simulator randomness flows through sources created here.
func NewRNG(seed1, seed2 uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed1, seed2))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when xs has
// fewer than two elements.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// GeoMean returns the geometric mean of xs. Non-positive values are
// rejected with an error since the geometric mean is undefined for them.
//
//premalint:ignore testonly seqlen's buildRegressionRef, the reference the flat regression is checked against, computes its geomeans
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geomean of empty slice")
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean requires positive values, got %v", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies and sorts its input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return PercentileInPlace(append([]float64(nil), xs...), p)
}

// PercentileInPlace is Percentile without the defensive copy: it sorts
// xs itself. For callers that recycle a scratch buffer whose order does
// not matter (the autoscaler's per-tick latency window, cleared right
// after the read), this turns a per-call allocation into none.
func PercentileInPlace(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	return PercentileSorted(xs, p)
}

// PercentileSorted is Percentile over an input already sorted ascending
// (sort.Float64s order): it neither copies nor sorts, so a caller that
// reads several percentiles of one sample sorts it once (see SortedCopy).
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// SortedCopy copies xs over dst's backing array (growing it only when
// xs is longer than its capacity), sorts the copy ascending and returns
// it: the one sort PercentileSorted reads any number of percentiles
// from. xs is left as it was; pass a kept dst to sort without
// allocating.
func SortedCopy(dst, xs []float64) []float64 {
	dst = append(dst[:0], xs...)
	sort.Float64s(dst)
	return dst
}

// Summary captures the five-number summary of a sample plus mean and count.
// It backs the boxplot-style characterization figures (e.g. Figure 9).
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	Max    float64
}

// Summarize computes a Summary for xs. An empty sample yields a zero
// Summary with N == 0. It sorts one copy of xs and reads the three
// quartiles from it; the mean sums xs in slice order.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := SortedCopy(nil, xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Min:    Min(xs),
		P25:    PercentileSorted(sorted, 25),
		Median: PercentileSorted(sorted, 50),
		P75:    PercentileSorted(sorted, 75),
		Max:    Max(xs),
	}
}

// String renders the summary in a compact, human-readable form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f p25=%.3f med=%.3f p75=%.3f max=%.3f",
		s.N, s.Mean, s.Min, s.P25, s.Median, s.P75, s.Max)
}

// IQR returns the interquartile range of the summary.
func (s Summary) IQR() float64 { return s.P75 - s.P25 }

// Clamp restricts v to the inclusive range [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// CeilDiv returns ceil(a/b) for positive integers.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("stats: CeilDiv with non-positive divisor")
	}
	return (a + b - 1) / b
}

// CeilDiv64 returns ceil(a/b) for positive 64-bit integers.
func CeilDiv64(a, b int64) int64 {
	if b <= 0 {
		panic("stats: CeilDiv64 with non-positive divisor")
	}
	return (a + b - 1) / b
}
