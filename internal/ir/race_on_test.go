//go:build race

package ir

// raceEnabled reports whether the race detector is active; the
// allocation-regression pins are skipped under -race because the race
// runtime itself allocates.
const raceEnabled = true
