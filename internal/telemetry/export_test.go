package telemetry

// Test-only views of the rings.

// Len reports how many samples the ring currently holds.
func (r *Recorder) Len() int { return len(r.buf) }

// Total reports how many samples were ever recorded.
func (r *Recorder) Total() int { return r.total }

// Cap reports the ring's capacity.
func (r *Recorder) Cap() int { return r.cap }

// Total reports how many events were ever recorded; Total > Len means
// the ring evicted early events.
func (t *Tracer) Total() int { return t.total }

// Cap reports the ring's capacity.
func (t *Tracer) Cap() int { return t.cap }

// Events returns the recorded events oldest-first as a fresh slice.
func (t *Tracer) Events() []Event { return t.AppendEvents(make([]Event, 0, t.n)) }
