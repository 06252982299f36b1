//go:build !race

package vstore

// raceEnabled reports the race detector (race_test.go).
const raceEnabled = false
