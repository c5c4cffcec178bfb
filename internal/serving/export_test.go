package serving

// Test-only views of the live path's instrumentation.

// Simulations reports how many times the session ran the simulator —
// repeated Stats calls without new submissions answer from the memo.
func (ss *Session) Simulations() int { return ss.simulations }

// Materialized reports how many scheduler entries the session's live
// simulators were given: each request once, unless a rebuild re-admits it.
func (ss *Session) Materialized() int { return ss.materialized }

// Rebuilds reports how many live simulators the session built from
// cycle 0.
func (ss *Session) Rebuilds() int { return ss.rebuilds }
