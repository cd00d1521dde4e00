//go:build race

package reasm

// raceEnabled mirrors the engine package's build-tag probe: allocation
// pins are skipped under the race runtime, which allocates on its own.
const raceEnabled = true
