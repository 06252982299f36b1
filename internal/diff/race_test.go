//go:build race

package diff_test

// raceEnabled reports the race detector. Under it sync.Pool drops a
// share of what is put back, at random, so a test that counts the
// allocations of code using pooled trees and matchers measures that
// chance.
const raceEnabled = true
