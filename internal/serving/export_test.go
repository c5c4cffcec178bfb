package serving

// Test-only views of the live path's instrumentation.

// Materialized reports how many scheduler entries the session's live
// simulators were given: each request once, unless a rebuild re-admits it.
func (ss *Session) Materialized() int { return ss.materialized }

// Rebuilds reports how many live simulators the session built from
// cycle 0.
func (ss *Session) Rebuilds() int { return ss.rebuilds }
