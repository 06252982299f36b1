package diff_test

import (
	"context"
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
)

func TestDiffContextCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	oldDoc := changesim.Catalog(rng, 3, 5)
	sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.1, 1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := diff.DiffDetailedContext(context.Background(), oldDoc, sim.New, diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delta.Empty() {
		t.Error("expected a non-empty delta")
	}
}

func TestDiffContextCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	oldDoc := changesim.Catalog(rng, 4, 10)
	sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.2, 2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the first phase boundary must abort
	for _, matcher := range diff.Matchers() {
		if _, err := diff.DiffDetailedContext(ctx, oldDoc.Clone(), sim.New.Clone(), diff.Options{Matcher: matcher}); err != context.Canceled {
			t.Fatalf("%s: err = %v, want context.Canceled", matcher, err)
		}
	}
}

func TestDiffDetailedContextDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	oldDoc := changesim.Generic(rng, 400, 6, 5)
	sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.3, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, matcher := range diff.Matchers() {
		if _, err := diff.DiffDetailedContext(ctx, oldDoc, sim.New, diff.Options{Matcher: matcher}); err != context.Canceled {
			t.Fatalf("%s: err = %v, want context.Canceled (the internal sentinel must not leak)", matcher, err)
		}
	}
}

// TestDiffContextCanceledLargeDocument cancels a diff whose documents
// are past the tree builder's 1024-node cancellation check, so the
// build stops with both trees part-built. Every matcher must report
// context.Canceled rather than index or match the partial trees.
func TestDiffContextCanceledLargeDocument(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	oldDoc := changesim.CatalogOfSize(rng, 150000)
	sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.1, 4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, matcher := range diff.Matchers() {
		if _, err := diff.DiffDetailedContext(ctx, oldDoc, sim.New, diff.Options{Matcher: matcher}); err != context.Canceled {
			t.Fatalf("%s: err = %v, want context.Canceled", matcher, err)
		}
	}
}
