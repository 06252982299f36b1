package diff_test

import (
	"fmt"
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// TestComposeVersionsAllocations pins what a range read pays for its
// composition: two annotations without signatures, one XID table and
// the delta, whose pruned insert and delete content is nearly all of
// it (1 541 allocations on this chain with the signature index and the
// fan-out; 842 with four maps pairing the versions; 823 with the XID
// table a map, and as many with the xid.Table).
// ComposeVersions rewrites XIDs in final, so every run gets its own
// pre-made clone.
func TestComposeVersionsAllocations(t *testing.T) {
	base, final, _ := catalogChain(t, 7, 7000, 3, 0.10)
	const runs = 10
	finals := make([]*dom.Node, runs+1) // AllocsPerRun warms up with one extra call
	for i := range finals {
		finals[i] = final.Clone()
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := diff.ComposeVersions(base, finals[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.0f allocations per ComposeVersions of %d and %d nodes", allocs, base.Size(), final.Size())
	if allocs > 900 {
		t.Errorf("%.0f allocations per ComposeVersions, want at most 900", allocs)
	}
}

// TestSFTMDiffAllocations pins the same for the SFTM arm, which scores
// tokens and never reads a subtree signature: 2 495 allocations per
// diff of this page pair when it built the index anyway, 1 078
// without.
func TestSFTMDiffAllocations(t *testing.T) {
	oldDoc := changesim.HTMLPage(rand.New(rand.NewSource(7)), 40)
	sim, err := changesim.SimulateHTML(oldDoc, changesim.UniformHTML(0.12, 7))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := diff.Diff(oldDoc, sim.New, diff.Options{Matcher: diff.MatcherSFTM}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per SFTM diff of %d and %d nodes", allocs, oldDoc.Size(), sim.New.Size())
	if allocs > 1400 {
		t.Errorf("%.0f allocations per SFTM diff, want at most 1400", allocs)
	}
}

// TestBULDDiffAllocations pins what a BULD diff of a history_mix-sized
// catalog pair allocates, nearly all of it the delta: 1 502 allocations
// per diff while the signature index was three maps with a slice per
// bucket and the queue boxed every item, 332 on flat arrays.
func TestBULDDiffAllocations(t *testing.T) {
	oldDoc, newDoc := catalogPair(t, 7, 7000, 0.10)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := diff.Diff(oldDoc, newDoc, diff.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per BULD diff of %d and %d nodes", allocs, oldDoc.Size(), newDoc.Size())
	if allocs > 500 {
		t.Errorf("%.0f allocations per BULD diff, want at most 500", allocs)
	}
}

// BenchmarkDiff is the BULD diff behind a PUT, on a history_mix-sized
// catalog pair and an ingest_large-sized one.
func BenchmarkDiff(b *testing.B) {
	for _, bytes := range []int{7_000, 150_000} {
		b.Run(fmt.Sprintf("bytes=%d", bytes), func(b *testing.B) {
			oldDoc, newDoc := catalogPair(b, 7, bytes, 0.10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := diff.Diff(oldDoc, newDoc, diff.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComposeVersions is the composition behind a range GET, on a
// history_mix-sized chain and an ingest_large-sized one.
func BenchmarkComposeVersions(b *testing.B) {
	for _, bytes := range []int{7_000, 150_000} {
		b.Run(fmt.Sprintf("bytes=%d", bytes), func(b *testing.B) {
			base, final, _ := catalogChain(b, 7, bytes, 3, 0.10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// final keeps the XIDs it has, so it can be reused.
				if _, err := diff.ComposeVersions(base, final); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
