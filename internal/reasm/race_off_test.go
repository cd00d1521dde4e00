//go:build !race

package reasm

const raceEnabled = false
