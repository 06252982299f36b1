//go:build race

package dom

// raceEnabled reports the race detector. Under it the runtime makes
// allocations of its own now and then, so a test that counts the
// allocations of a call measures those too.
const raceEnabled = true
