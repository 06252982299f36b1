//go:build !race

package alloctest

// underRace reports a race-detector build; race.go is its pair.
const underRace = false
