package sftm_test

import (
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/dom"
	"xydiff/internal/sftm"
)

// pagePair is the benchmark workload's shape: a 40-section id-less page
// (about 700 nodes) and its 12%-churn successor.
func pagePair(t testing.TB) (oldDoc, newDoc *dom.Node) {
	t.Helper()
	oldDoc = changesim.HTMLPage(rand.New(rand.NewSource(1)), 40)
	sim, err := changesim.SimulateHTML(oldDoc, changesim.UniformHTML(0.12, 1))
	if err != nil {
		t.Fatal(err)
	}
	return oldDoc, sim.New
}

// TestMatchAllocations pins the flat layout: a match allocates a fixed
// handful of arrays (about eighty allocations on this pair; the
// per-node slices and per-token maps it replaced made 16 576), so a
// reintroduced per-node or per-token allocation fails here rather than
// in a later benchmark run.
func TestMatchAllocations(t *testing.T) {
	oldDoc, newDoc := pagePair(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sftm.Match(oldDoc, newDoc, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per match of %d and %d nodes", allocs, oldDoc.Size(), newDoc.Size())
	if allocs > 300 {
		t.Errorf("%.0f allocations per match, want at most 300", allocs)
	}
}

func benchmarkMatch(b *testing.B, oldDoc, newDoc *dom.Node, match func(oldDoc, newDoc *dom.Node) error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := match(oldDoc, newDoc); err != nil {
			b.Fatal(err)
		}
	}
}

func matchNew(oldDoc, newDoc *dom.Node) error {
	_, err := sftm.Match(oldDoc, newDoc, nil)
	return err
}

func matchReference(oldDoc, newDoc *dom.Node) error {
	_, err := Match(oldDoc, newDoc, Options{})
	return err
}

func BenchmarkMatch(b *testing.B) {
	oldDoc, newDoc := pagePair(b)
	benchmarkMatch(b, oldDoc, newDoc, matchNew)
}

func BenchmarkMatchLargePage(b *testing.B) {
	oldDoc, newDoc := largePair(b)
	benchmarkMatch(b, oldDoc, newDoc, matchNew)
}

// The reference's rows, so the ratio is reproducible from one test
// binary.
func BenchmarkReferenceMatch(b *testing.B) {
	oldDoc, newDoc := pagePair(b)
	benchmarkMatch(b, oldDoc, newDoc, matchReference)
}

func BenchmarkReferenceMatchLargePage(b *testing.B) {
	oldDoc, newDoc := largePair(b)
	benchmarkMatch(b, oldDoc, newDoc, matchReference)
}
