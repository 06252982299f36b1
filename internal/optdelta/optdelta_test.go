package optdelta

import (
	"errors"
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

func mustParse(t *testing.T, s string) *dom.Node {
	t.Helper()
	doc, err := dom.ParseString(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}

func optimal(t *testing.T, oldXML, newXML string) Result {
	t.Helper()
	res, err := Optimal(mustParse(t, oldXML), mustParse(t, newXML), Options{})
	if err != nil {
		t.Fatalf("Optimal(%q, %q): %v", oldXML, newXML, err)
	}
	if !res.Exact {
		t.Fatalf("Optimal(%q, %q): inexact within default budget", oldXML, newXML)
	}
	return res
}

// TestKnownOptima pins the oracle on pairs whose minimum cost is
// derivable by hand under the documented cost model.
func TestKnownOptima(t *testing.T) {
	cases := []struct {
		name     string
		old, new string
		want     int
	}{
		{"identical", `<a><b>x</b><c/></a>`, `<a><b>x</b><c/></a>`, 0},
		{"one text update", `<a><b>x</b></a>`, `<a><b>y</b></a>`, 1},
		{"delete two-node subtree", `<a><b><c/></b><d/></a>`, `<a><d/></a>`, 2},
		{"insert two-node subtree", `<a><d/></a>`, `<a><b><c/></b><d/></a>`, 2},
		{"sibling swap is one move", `<a><b/><c/></a>`, `<a><c/><b/></a>`, 1},
		{"reparent is one move", `<a><b><x/></b><c/></a>`, `<a><b/><c><x/></c></a>`, 1},
		{"subtree move is one move", `<a><b><x y="1"><z/></x></b><c/></a>`, `<a><b/><c><x y="1"><z/></x></c></a>`, 1},
		{"attr update", `<a><b k="1"/></a>`, `<a><b k="2"/></a>`, 1},
		{"attr insert plus delete", `<a k="1"><b/></a>`, `<a j="2"><b/></a>`, 2},
		{"rename forces delete+insert", `<a><b/></a>`, `<a><c/></a>`, 2},
		{"update beats delete+insert", `<a>old text</a>`, `<a>new text</a>`, 1},
		{"empty to empty", `<a/>`, `<a/>`, 0},
		{"three rotated children", `<a><b/><c/><d/></a>`, `<a><d/><b/><c/></a>`, 1},
	}
	for _, tc := range cases {
		if got := optimal(t, tc.old, tc.new).Cost; got != tc.want {
			t.Errorf("%s: cost = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestZeroCostMeansEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		oldDoc := changesim.Generic(rng, 6+rng.Intn(12), 3, 4)
		sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.2, int64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimal(oldDoc, sim.New, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			continue
		}
		if (res.Cost == 0) != dom.Equal(oldDoc, sim.New) {
			t.Fatalf("trial %d: cost %d but Equal=%v\nold: %s\nnew: %s",
				trial, res.Cost, dom.Equal(oldDoc, sim.New), oldDoc, sim.New)
		}
	}
}

// TestSoundAgainstComputedDeltas is the oracle's core contract: on
// random small pairs, the proven optimum never exceeds the cost of any
// delta an actual matcher produces — BULD, SFTM, or changesim's
// scripted perfect delta.
func TestSoundAgainstComputedDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		oldDoc := changesim.Generic(rng, 8+rng.Intn(14), 3, 5)
		sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.15, int64(trial*31+7)))
		if err != nil {
			t.Fatal(err)
		}
		if sim.New.Size()-1 > DefaultMaxNodes {
			continue
		}
		costs := map[string]int{"perfect": ScriptCost(sim.Perfect)}
		db, err := diff.Diff(oldDoc.Clone(), sim.New.Clone(), diff.Options{})
		if err != nil {
			t.Fatal(err)
		}
		costs["buld"] = ScriptCost(db)
		ds, err := diff.Diff(oldDoc.Clone(), sim.New.Clone(), diff.Options{Matcher: diff.MatcherSFTM})
		if err != nil {
			t.Fatal(err)
		}
		costs["sftm"] = ScriptCost(ds)
		res, err := Optimal(oldDoc, sim.New, Options{UpperBound: costs["buld"]})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			continue
		}
		for name, c := range costs {
			if res.Cost > c {
				t.Errorf("trial %d: optimum %d exceeds %s cost %d\nold: %s\nnew: %s",
					trial, res.Cost, name, c, oldDoc, sim.New)
			}
		}
	}
}

func TestTooLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := changesim.Generic(rng, 60, 4, 4)
	small := mustParse(t, `<a/>`)
	if _, err := Optimal(big, small, Options{}); !errors.Is(err, errTooLarge) {
		t.Fatalf("old over cap: err = %v, want ErrTooLarge", err)
	}
	if _, err := Optimal(small, big, Options{}); !errors.Is(err, errTooLarge) {
		t.Fatalf("new over cap: err = %v, want ErrTooLarge", err)
	}
	if _, err := Optimal(small.Children[0], small, Options{}); err == nil {
		t.Fatal("non-document input accepted")
	}
}

func TestBudgetExhaustionIsHonest(t *testing.T) {
	// Many identically-labeled leaves defeat pruning; a tiny budget
	// must yield Exact=false with a still-achievable cost.
	oldDoc := mustParse(t, `<a><x/><x/><x/><x/><x/><x/><x/><x/></a>`)
	newDoc := mustParse(t, `<a><x/><x/><x/><x/><x/><x/><x/><y/></a>`)
	res, err := Optimal(oldDoc, newDoc, Options{MaxStates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatalf("Exact=true with a 10-state budget (states=%d)", res.States)
	}
	if res.Cost < 2 || res.Cost > oldDoc.Size()+newDoc.Size() {
		t.Fatalf("budget-limited cost %d outside achievable range", res.Cost)
	}
	full, err := Optimal(oldDoc, newDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Exact || full.Cost != 2 {
		t.Fatalf("full search: cost=%d exact=%v, want 2/true (delete x, insert y)", full.Cost, full.Exact)
	}
}

func TestScriptCostCountsSubtreeNodes(t *testing.T) {
	oldDoc := mustParse(t, `<a><b><c>t</c></b></a>`)
	newDoc := mustParse(t, `<a/>`)
	d, err := diff.Diff(oldDoc.Clone(), newDoc.Clone(), diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The b subtree has three nodes (b, c, text); deleting it must
	// cost three no matter how the differ groups the deletes.
	if got := ScriptCost(d); got != 3 {
		t.Fatalf("ScriptCost = %d, want 3 (delta: %s)", got, d)
	}
	if ScriptCost(nil) != 0 {
		t.Fatal("ScriptCost(nil) != 0")
	}
}
