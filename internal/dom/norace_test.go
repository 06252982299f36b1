//go:build !race

package dom

// raceEnabled reports the race detector (race_test.go).
const raceEnabled = false
