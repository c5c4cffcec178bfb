package systolic

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func randTile(rng *rand.Rand, rows, cols int) [][]int32 {
	w := make([][]int32, rows)
	for i := range w {
		w[i] = make([]int32, cols)
		for j := range w[i] {
			w[i][j] = int32(rng.IntN(17) - 8)
		}
	}
	return w
}

func randAct(rng *rand.Rand, n, height int) [][]int32 {
	act := make([][]int32, n)
	for t := range act {
		act[t] = make([]int32, height)
		for i := range act[t] {
			act[t][i] = int32(rng.IntN(17) - 8)
		}
	}
	return act
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("zero rows should be rejected")
	}
	if _, err := New(4, -1); err == nil {
		t.Error("negative cols should be rejected")
	}
	a, err := New(3, 5)
	if err != nil || a.rows != 3 || a.cols != 5 {
		t.Errorf("New(3,5) = %v, %v", a, err)
	}
}

func TestStreamRequiresWeights(t *testing.T) {
	a, _ := New(2, 2)
	if _, err := a.Stream([][]int32{{1, 1}}); err == nil {
		t.Error("Stream before LoadWeights should error")
	}
}

func TestOversizedInputsRejected(t *testing.T) {
	a, _ := New(2, 2)
	if err := a.LoadWeights(randTile(rand.New(rand.NewPCG(1, 1)), 3, 2)); err == nil {
		t.Error("too-tall weight tile should be rejected")
	}
	if err := a.LoadWeights([][]int32{{1, 2, 3}}); err == nil {
		t.Error("too-wide weight tile should be rejected")
	}
	if err := a.LoadWeights([][]int32{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Stream([][]int32{{1, 2, 3}}); err == nil {
		t.Error("too-tall activation column should be rejected")
	}
	if _, err := a.Stream(nil); err == nil {
		t.Error("empty stream should be rejected")
	}
}

func TestKnownSmallProduct(t *testing.T) {
	// W (2x2): rows are k, cols are m.
	// Out[j][t] = sum_i W[i][j]*act[t][i].
	a, _ := New(2, 2)
	w := [][]int32{{1, 2}, {3, 4}}
	if err := a.LoadWeights(w); err != nil {
		t.Fatal(err)
	}
	act := [][]int32{{5, 6}, {7, 8}}
	res, err := a.Stream(act)
	if err != nil {
		t.Fatal(err)
	}
	want := MatMul(w, act, 2)
	for j := range want {
		for tt := range want[j] {
			if res.Out[j][tt] != want[j][tt] {
				t.Errorf("Out[%d][%d] = %d, want %d", j, tt, res.Out[j][tt], want[j][tt])
			}
		}
	}
	// 5 = Out[0][0] = 1*5 + 3*6 = 23.
	if want[0][0] != 23 {
		t.Errorf("reference MatMul wrong: %d", want[0][0])
	}
}

func TestMeasuredCyclesMatchAnalyticFormula(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, dims := range []struct{ rows, cols, n int }{
		{2, 2, 1}, {4, 4, 8}, {8, 3, 5}, {3, 8, 16}, {16, 16, 2},
	} {
		a, err := New(dims.rows, dims.cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.LoadWeights(randTile(rng, dims.rows, dims.cols)); err != nil {
			t.Fatal(err)
		}
		res, err := a.Stream(randAct(rng, dims.n, dims.rows))
		if err != nil {
			t.Fatal(err)
		}
		want := PipelineCycles(dims.rows, dims.cols, dims.n)
		// The functional model may commit within a couple of cycles of
		// the closed-form expression; the paper's Figure 3(b) rounds
		// to SW+SH+ACC. Tolerate +-2 cycles.
		diff := res.Cycles - want
		if diff < -2 || diff > 2 {
			t.Errorf("%dx%d n=%d: measured %d cycles, analytic %d",
				dims.rows, dims.cols, dims.n, res.Cycles, want)
		}
	}
}

// Property: the cycle-stepped dataflow computes exactly the reference
// matrix product for random shapes, including edge tiles smaller than the
// array (Figure 3(c)).
func TestStreamMatchesMatMulProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	f := func() bool {
		rows := 1 + rng.IntN(12)
		cols := 1 + rng.IntN(12)
		n := 1 + rng.IntN(20)
		a, err := New(rows, cols)
		if err != nil {
			return false
		}
		// Edge tiles: weights may cover only part of the array.
		wRows := 1 + rng.IntN(rows)
		wCols := 1 + rng.IntN(cols)
		w := randTile(rng, wRows, wCols)
		if err := a.LoadWeights(w); err != nil {
			return false
		}
		// Activation columns may be shorter than the array height.
		act := randAct(rng, n, 1+rng.IntN(rows))
		res, err := a.Stream(act)
		if err != nil {
			return false
		}
		want := MatMul(w, act, cols)
		for j := range want {
			for tt := range want[j] {
				if res.Out[j][tt] != want[j][tt] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestBackToBackTiles(t *testing.T) {
	// Reloading weights between tiles must not leak state.
	a, _ := New(4, 4)
	rng := rand.New(rand.NewPCG(5, 6))
	for tile := 0; tile < 5; tile++ {
		w := randTile(rng, 4, 4)
		if err := a.LoadWeights(w); err != nil {
			t.Fatal(err)
		}
		act := randAct(rng, 6, 4)
		res, err := a.Stream(act)
		if err != nil {
			t.Fatal(err)
		}
		want := MatMul(w, act, 4)
		for j := range want {
			for tt := range want[j] {
				if res.Out[j][tt] != want[j][tt] {
					t.Fatalf("tile %d mismatched at [%d][%d]", tile, j, tt)
				}
			}
		}
	}
}
