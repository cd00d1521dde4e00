//go:build race

package fed

// raceEnabled reports whether the race detector is active: allocation
// pins are skipped under the race runtime, which allocates on its own.
const raceEnabled = true
