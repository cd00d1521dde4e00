//go:build !race

package nids

const raceEnabled = false
