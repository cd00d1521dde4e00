//go:build race

package nids

// raceEnabled reports whether the race detector is active; the
// allocation pin is skipped under -race because the race runtime
// itself allocates.
const raceEnabled = true
