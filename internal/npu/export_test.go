package npu

// RandomProgram exposes the random program builder to the external test
// package, which compiles zoo instances and so cannot live in npu itself.
var RandomProgram = randomProgram

// Cursor observables the tests read.

// Remaining returns the cycles left until completion.
func (e *Execution) Remaining() int64 { return e.total - e.done }

// Progress returns the executed fraction in [0,1].
func (e *Execution) Progress() float64 {
	if e.total == 0 {
		return 1
	}
	return float64(e.done) / float64(e.total)
}

// CurrentLayer returns the layer index of the in-flight instruction, or -1
// once the program has completed.
func (e *Execution) CurrentLayer() int {
	if e.Done() {
		return -1
	}
	layer := int(e.step)
	for _, r := range e.prog.Runs[:e.run] {
		layer += r.Layers()
	}
	return layer
}
