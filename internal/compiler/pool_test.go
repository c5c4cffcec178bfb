package compiler

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/dnn"
)

// compileCost returns the objects and bytes one compile of an instance
// allocates on c, averaged over runs after a warm-up compile that lowers
// any block or body the pool lacks.
func compileCost(t *testing.T, c *Compiler, m *dnn.Model, inLen, outLen int) (objects, bytes uint64) {
	t.Helper()
	const runs = 20
	compile := func() {
		if _, err := c.Compile(m, 1, inLen, outLen); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	compile()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		compile()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// A new RNN instance on a warm compiler costs its run table, not its
// unrolled layers: compiling RNN-MT2 b1 allocates the same objects and
// bytes at outLen 300 as at outLen 20, and RNN-ASR b1 the same at inLen
// 100 as at inLen 20.
func TestWarmCompileAllocsIndependentOfLength(t *testing.T) {
	c := newCompiler(t)
	for _, x := range []struct {
		model       string
		short, long [2]int // inLen, outLen
	}{
		{"RNN-MT2", [2]int{20, 20}, [2]int{20, 300}},
		{"RNN-ASR", [2]int{20, 30}, [2]int{100, 30}},
	} {
		m, err := dnn.ByName(x.model)
		if err != nil {
			t.Fatal(err)
		}
		so, sb := compileCost(t, c, m, x.short[0], x.short[1])
		lo, lb := compileCost(t, c, m, x.long[0], x.long[1])
		if so != lo || sb != lb {
			t.Errorf("%s: compile allocates %d objects, %d B at %v but %d objects, %d B at %v",
				x.model, so, sb, x.short, lo, lb, x.long)
		}
	}
}

// An instance's pool is a prefix of the (model, batch) pool that later
// instances extend, and it holds blocks the instance may never run. Its
// own view stays fixed, and MaxLiveBytes reads only the blocks it runs.
func TestSharedPoolPrefix(t *testing.T) {
	c := newCompiler(t)
	m, err := dnn.ByName("RNN-MT2")
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Compile(m, 16, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := streamDigest(full)
	encOnly, err := c.Compile(m, 16, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(encOnly.Instrs) != len(full.Instrs) || &encOnly.Instrs[0] != &full.Instrs[0] {
		t.Fatal("instances of one (model, batch) should share one pool")
	}
	fresh, err := New(c.Config())
	if err != nil {
		t.Fatal(err)
	}
	own, err := fresh.Compile(m, 16, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(own.Instrs) >= len(encOnly.Instrs) {
		t.Fatalf("shared pool (%d) should hold the decoder blocks a fresh pool (%d) lacks",
			len(encOnly.Instrs), len(own.Instrs))
	}
	if got, want := encOnly.MaxLiveBytes(), own.MaxLiveBytes(); got != want {
		t.Errorf("MaxLiveBytes %d reads blocks the program never runs (want %d)", got, want)
	}
	// Lowering new shapes into the pool leaves earlier programs intact.
	if _, err := c.Compile(&dnn.Model{Name: m.Name, Class: dnn.CNN, Static: []dnn.Layer{
		dnn.NewFC("wide", 4096, 4096, true)}}, 16, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := streamDigest(full); got != before {
		t.Errorf("a later compile changed an earlier program:\n got  %s\n want %s", got, before)
	}
	if cap(full.Instrs) != len(full.Instrs) {
		t.Error("a program's pool must be capacity-clipped so appends never reach it")
	}
}

// Compiles from many goroutines share one Compiler's pools safely: every
// program equals the one a fresh compiler produces.
func TestConcurrentCompilesMatchFresh(t *testing.T) {
	c := newCompiler(t)
	var rnns []*dnn.Model
	for _, m := range dnn.Suite() {
		if m.IsRNN() {
			rnns = append(rnns, m)
		}
	}
	const workers, each = 8, 12
	var wg sync.WaitGroup
	errs := make(chan string, workers*each)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				m := rnns[(w+i)%len(rnns)]
				b := dnn.BatchSizes[(w*each+i)%len(dnn.BatchSizes)]
				in, out := 1+(w*7+i*3)%20, (w*5+i*11)%30
				got, err := c.Compile(m, b, in, out)
				if err != nil {
					errs <- err.Error()
					continue
				}
				fresh, err := New(c.Config())
				if err != nil {
					errs <- err.Error()
					continue
				}
				want, err := fresh.Compile(m, b, in, out)
				if err != nil {
					errs <- err.Error()
					continue
				}
				if g, w := streamDigest(got), streamDigest(want); g != w {
					errs <- "shared-pool program differs from fresh:\n got  " + g + "\n want " + w
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
