// Package alloctest counts what a call allocates. Cost is the one way
// the module's tests count allocations or allocated bytes
// (TestAllocationCountsGoThroughAlloctest keeps it so), and it skips
// under the race detector, whose runtime allocates of its own now and
// then and whose sync.Pool drops a share of what is put back at random.
// `make check` runs the suite once without -race, where every count
// runs.
package alloctest

import (
	"runtime"
	"testing"
)

// Cost returns the allocations and bytes of one call of f, over runs
// calls after a warm-up call, with GOMAXPROCS at 1, as
// testing.AllocsPerRun measures. allocs is AllocsPerRun's figure too:
// the total count integer-divided by runs, so an allocation the
// runtime makes of its own in the loop now and then does not tip an
// exact bound. bytes is the mean allocated per call. Goroutines f
// starts are counted with it. Under the race detector Cost skips t.
func Cost(t testing.TB, runs int, f func()) (allocs, bytes float64) {
	t.Helper()
	if underRace {
		t.Skip("alloctest: allocation counts vary at random under the race detector; make check counts them without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
