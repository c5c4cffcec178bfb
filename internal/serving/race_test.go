//go:build race

package serving

// raceEnabled reports a -race build: the race detector slows the
// long-session heap test thirtyfold and measures nothing it does not.
const raceEnabled = true
