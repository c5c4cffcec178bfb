// Package broken is the seeded-violation fixture: ci.sh runs
// premalint -only <analyzer> over this directory for each analyzer
// seeded here (determinism, expgolden, floatorder, testonly) and
// requires every run to exit 1, proving each tripwire actually trips.
// Clock and MeanScore are exported and no non-test file calls them,
// which is testonly's seeded violation.
package broken

import "time"

// Clock violates the determinism invariant on purpose.
func Clock() int64 {
	return time.Now().UnixNano()
}

// Experiment mirrors the exp registry entry so the expgolden tripwire
// has a register site to flag.
type Experiment struct{ ID string }

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

func init() {
	register(Experiment{ID: "listed"})
	// "unlisted" is missing from experiments.golden on purpose.
	register(Experiment{ID: "unlisted"})
}

// MeanScore folds a map-ordered slice into a float on purpose, so the
// floatorder tripwire has a violation to flag.
func MeanScore(scores map[string]float64) float64 {
	var vals []float64
	for _, v := range scores {
		vals = append(vals, v)
	}
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total / float64(len(vals))
}
