// Package systolic implements a functional, cycle-stepped model of the
// weight-stationary systolic array at the heart of the baseline NPU
// (Figure 3). It computes real matrix products by propagating activations
// and partial sums through the PE grid one cycle at a time, and it reports
// the cycle count a tile occupies the array.
//
// The package exists to validate the analytic tile-time model used by the
// compiler and by PREMA's Algorithm 1: the measured pipeline occupancy of
// a (rows x cols) array streaming n activation columns is
//
//	n + rows + cols - 1 cycles
//
// which the paper rounds up to SW + SH + ACC (Figure 3(b)) and, with the
// additional weight-staging pass, to ACC + SH + 2*SW in Algorithm 1.
package systolic

import "fmt"

// Array is a weight-stationary systolic array of rows x cols PEs. Row i
// corresponds to the k (reduction) dimension, column j to the m (output)
// dimension: PE(i,j) latches weight w[i][j] and accumulates
// psum[j] += w[i][j] * act[i].
type Array struct {
	rows, cols int
	weights    [][]int32 // rows x cols
	loaded     bool
}

// New constructs an array of the given dimensions.
//
//premalint:ignore testonly the cycle-stepped array systolic's TestMeasuredCyclesMatchAnalyticFormula measures the tile-time model on
func New(rows, cols int) (*Array, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("systolic: non-positive dims %dx%d", rows, cols)
	}
	w := make([][]int32, rows)
	for i := range w {
		w[i] = make([]int32, cols)
	}
	return &Array{rows: rows, cols: cols, weights: w}, nil
}

// LoadWeights latches a weight tile into the PE grid (the LOAD_TILE weight
// path). The tile may be smaller than the array; the remainder is zeroed,
// modelling the under-utilized edge tiles of Figure 3(c).
//
//premalint:ignore testonly latches the tiles systolic's TestStreamMatchesMatMulProperty streams through the oracle array
func (a *Array) LoadWeights(tile [][]int32) error {
	if len(tile) > a.rows {
		return fmt.Errorf("systolic: weight tile has %d rows > array %d", len(tile), a.rows)
	}
	for i := range a.weights {
		for j := range a.weights[i] {
			a.weights[i][j] = 0
		}
	}
	for i, row := range tile {
		if len(row) > a.cols {
			return fmt.Errorf("systolic: weight tile row %d has %d cols > array %d",
				i, len(row), a.cols)
		}
		copy(a.weights[i], row)
	}
	a.loaded = true
	return nil
}

// Result carries the product tile and the measured occupancy.
type Result struct {
	// Out is the cols x n output tile: Out[j][t] = sum_i W[i][j]*Act[i][t].
	Out [][]int32
	// Cycles is the number of cycles the tile occupied the array, from
	// first activation injection to last partial-sum drain.
	Cycles int
}

// Stream pushes n activation columns (each of height <= rows) through the
// loaded array, cycle by cycle, and returns the output tile together with
// the measured occupancy. act is indexed act[t][i]: column t, row i.
//
// The dataflow follows Figure 3(b): activations enter the left edge
// skewed one cycle per row; partial sums flow downward one PE per cycle;
// column j's results for activation column t emerge after the full
// pipeline fill.
//
//premalint:ignore testonly runs the oracle array; systolic's TestMeasuredCyclesMatchAnalyticFormula reads its cycles
func (a *Array) Stream(act [][]int32) (Result, error) {
	if !a.loaded {
		return Result{}, fmt.Errorf("systolic: Stream before LoadWeights")
	}
	n := len(act)
	if n == 0 {
		return Result{}, fmt.Errorf("systolic: empty activation stream")
	}
	for t, col := range act {
		if len(col) > a.rows {
			return Result{}, fmt.Errorf("systolic: activation column %d height %d > array %d",
				t, len(col), a.rows)
		}
	}

	// actReg[i] is the activation currently held in row i's horizontal
	// shift path entering column 0; psum[i][j] is the partial sum held
	// on the vertical link between PE(i-1,j) and PE(i,j).
	// To keep the functional model compact we simulate the canonical
	// equivalent dataflow: activation column t is injected skewed so
	// that row i sees element (t, i) at cycle t+i; the product for
	// column t at column j commits at cycle t + (rows-1) + j + 1.
	out := make([][]int32, a.cols)
	for j := range out {
		out[j] = make([]int32, n)
	}

	// psums[i][j]: partial sum in flight at depth i of column j.
	psums := make([][]int32, a.rows+1)
	for i := range psums {
		psums[i] = make([]int32, a.cols)
	}
	// tags[i][j]: which activation column the in-flight partial at
	// depth i of column j belongs to (-1 when idle).
	tags := make([][]int, a.rows+1)
	for i := range tags {
		tags[i] = make([]int, a.cols)
		for j := range tags[i] {
			tags[i][j] = -1
		}
	}
	// acts[i]: the horizontal activation pipeline per row; acts[i][j]
	// is the activation value at row i currently visible to column j,
	// with actTags carrying its column index.
	acts := make([][]int32, a.rows)
	actTags := make([][]int, a.rows)
	for i := range acts {
		acts[i] = make([]int32, a.cols)
		actTags[i] = make([]int, a.cols)
		for j := range actTags[i] {
			actTags[i][j] = -1
		}
	}

	lastCommit := 0
	maxCycles := n + a.rows + a.cols + 4
	for cycle := 0; cycle < maxCycles; cycle++ {
		// Drain: partial sums exiting the bottom of each column commit
		// to the accumulator queue.
		for j := 0; j < a.cols; j++ {
			if t := tags[a.rows][j]; t >= 0 {
				out[j][t] = psums[a.rows][j]
				tags[a.rows][j] = -1
				lastCommit = cycle
			}
		}
		// Shift partial sums downward and multiply-accumulate, bottom
		// row first so values move exactly one PE per cycle.
		for i := a.rows - 1; i >= 0; i-- {
			for j := 0; j < a.cols; j++ {
				at := actTags[i][j]
				if at < 0 {
					continue
				}
				// The partial arriving from above must carry the
				// same activation-column tag (or be the fresh
				// injection at row 0).
				var acc int32
				if i == 0 {
					acc = 0
				} else {
					if tags[i][j] != at {
						continue
					}
					acc = psums[i][j]
					tags[i][j] = -1
				}
				psums[i+1][j] = acc + a.weights[i][j]*acts[i][j]
				tags[i+1][j] = at
			}
		}
		// Shift activations rightward along each row.
		for i := 0; i < a.rows; i++ {
			for j := a.cols - 1; j > 0; j-- {
				acts[i][j] = acts[i][j-1]
				actTags[i][j] = actTags[i][j-1]
			}
			acts[i][0] = 0
			actTags[i][0] = -1
		}
		// Inject the skewed activation front: row i receives column
		// t = cycle - i at the left edge.
		for i := 0; i < a.rows; i++ {
			t := cycle - i
			if t < 0 || t >= n {
				continue
			}
			v := int32(0)
			if i < len(act[t]) {
				v = act[t][i]
			}
			acts[i][0] = v
			actTags[i][0] = t
		}
	}
	return Result{Out: out, Cycles: lastCommit + 1}, nil
}

// MatMul is the reference product used to verify the array: given W
// (rows x cols) and activations act (n columns of height rows), it returns
// out[j][t] = sum_i W[i][j] * act[t][i].
//
//premalint:ignore testonly the reference product systolic's TestStreamMatchesMatMulProperty checks the array's output against
func MatMul(w [][]int32, act [][]int32, cols int) [][]int32 {
	n := len(act)
	out := make([][]int32, cols)
	for j := range out {
		out[j] = make([]int32, n)
	}
	for t := 0; t < n; t++ {
		for j := 0; j < cols; j++ {
			var sum int32
			for i := 0; i < len(w) && i < len(act[t]); i++ {
				if j < len(w[i]) {
					sum += w[i][j] * act[t][i]
				}
			}
			out[j][t] = sum
		}
	}
	return out
}

// PipelineCycles is the analytic occupancy the array should measure for n
// streamed columns: fill (rows), stream (n), drain (cols), minus the one
// cycle of overlap between fill and the first commit.
//
//premalint:ignore testonly the analytic tile time systolic's TestMeasuredCyclesMatchAnalyticFormula holds the array's measured cycles to
func PipelineCycles(rows, cols, n int) int {
	return n + rows + cols - 1
}
