//go:build !race

package diff_test

// raceEnabled reports the race detector (race_test.go).
const raceEnabled = false
