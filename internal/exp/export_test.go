package exp

// Test-only view of the engine's instrumentation.

// Draws reports how many workloads RunConfigsSched has drawn: at most
// one per run per call, none for a run the cache answers for every
// configuration.
func (s *Suite) Draws() int64 { return s.draws.Load() }
