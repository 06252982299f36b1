package diff_test

import (
	"fmt"
	"math/rand"
	"testing"

	"xydiff/internal/alloctest"
	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// composeAllocations is what one ComposeVersions of the chain's two
// ends allocates. ComposeVersions consumes both trees, so every run gets
// its own pre-made clones, made outside the counted function.
func composeAllocations(t *testing.T, bytes int) (allocs float64, baseNodes, finalNodes int) {
	base, final, _ := catalogChain(t, 7, bytes, 3, 0.10)
	const runs = 10
	var ends [runs + 1][2]*dom.Node // Cost warms up with one extra call
	for i := range ends {
		ends[i] = [2]*dom.Node{base.Clone(), final.Clone()}
	}
	next := 0
	allocs, _ = alloctest.Cost(t, runs, func() {
		if _, err := diff.ComposeVersions(ends[next][0], ends[next][1]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	return allocs, base.Size(), final.Size()
}

// TestComposeVersionsAllocations pins what a range read pays for its
// composition: two annotations without signatures, one XID table and
// the delta's op slab; the inserted and deleted content is the two
// trees' own (1 541 allocations on this chain with the signature index
// and the fan-out; 842 with four maps pairing the versions; 823 with
// the XID table a map, and as many with the xid.Table; 20 with one op
// struct and the content cut from slabs; 9 with the move rule's
// subsequence in the matcher's scratch and the ops counted first; 6
// with the content taken from the trees instead of cut from three
// slabs).
func TestComposeVersionsAllocations(t *testing.T) {
	allocs, oldNodes, newNodes := composeAllocations(t, 7000)
	t.Logf("%.0f allocations per ComposeVersions of %d and %d nodes", allocs, oldNodes, newNodes)
	if allocs > 7 {
		t.Errorf("%.0f allocations per ComposeVersions, want at most 7", allocs)
	}
}

// TestComposeVersionsAllocationsLarge is the same guard on an
// ingest_large-sized chain, where a range read's composition builds a
// delta of over a thousand ops: what it allocates must not follow the
// ops or the nodes: 13 709 allocations with a boxed op, an XID map per
// insert and delete and a heap object per pruned node, and a result
// slice per intra-parent move search; 30 or 31 without; 27 with the
// content taken from the trees instead of cut from three slabs.
func TestComposeVersionsAllocationsLarge(t *testing.T) {
	allocs, oldNodes, newNodes := composeAllocations(t, 150_000)
	t.Logf("%.0f allocations per ComposeVersions of %d and %d nodes", allocs, oldNodes, newNodes)
	if allocs > 30 {
		t.Errorf("%.0f allocations per ComposeVersions, want at most 30", allocs)
	}
}

// TestSFTMDiffAllocations pins the same for the SFTM arm, which scores
// tokens and never reads a subtree signature: 2 495 allocations per
// diff of this page pair when it built the index anyway, 1 078
// without, 126 with one op struct and the content cut from slabs, 98
// to 100 with the move rule's subsequence in the matcher's scratch and
// the ops counted first.
func TestSFTMDiffAllocations(t *testing.T) {
	oldDoc := changesim.HTMLPage(rand.New(rand.NewSource(7)), 40)
	sim, err := changesim.SimulateHTML(oldDoc, changesim.UniformHTML(0.12, 7))
	if err != nil {
		t.Fatal(err)
	}
	allocs, _ := alloctest.Cost(t, 10, func() {
		if _, err := diff.Diff(oldDoc, sim.New, diff.Options{Matcher: diff.MatcherSFTM}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per SFTM diff of %d and %d nodes", allocs, oldDoc.Size(), sim.New.Size())
	if allocs > 108 {
		t.Errorf("%.0f allocations per SFTM diff, want at most 108", allocs)
	}
}

// TestBULDDiffAllocations pins what a BULD diff of a history_mix-sized
// catalog pair allocates: 1 502 allocations per diff while the
// signature index was three maps with a slice per bucket and the queue
// boxed every item, 332 on flat arrays, nearly all of it the delta,
// 49 once the delta's ops are one slab and its content three, and 6
// with the move rule's subsequence in the matcher's scratch and the ops
// counted first.
func TestBULDDiffAllocations(t *testing.T) {
	oldDoc, newDoc := catalogPair(t, 7, 7000, 0.10)
	allocs, _ := alloctest.Cost(t, 10, func() {
		if _, err := diff.Diff(oldDoc, newDoc, diff.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per BULD diff of %d and %d nodes", allocs, oldDoc.Size(), newDoc.Size())
	if allocs > 7 {
		t.Errorf("%.0f allocations per BULD diff, want at most 7", allocs)
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
				// ComposeVersions consumes both ends: each run
				// composes copies, made off the clock.
				b.StopTimer()
				older, newer := base.Clone(), final.Clone()
				b.StartTimer()
				if _, err := diff.ComposeVersions(older, newer); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
