//go:build race

package alloctest

// underRace reports a race-detector build; norace.go is its pair.
const underRace = true
