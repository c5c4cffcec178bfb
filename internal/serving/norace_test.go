//go:build !race

package serving

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
