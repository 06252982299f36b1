package sftm_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"xydiff/internal/changesim"
	"xydiff/internal/dom"
	"xydiff/internal/sftm"
)

func parse(t testing.TB, src string) *dom.Node {
	t.Helper()
	doc, err := dom.ParseString(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}

// match runs sftm.Match and returns the result with its pairs in map
// form, documents excluded.
func match(t testing.TB, oldDoc, newDoc *dom.Node) (*sftm.Result, map[*dom.Node]*dom.Node) {
	t.Helper()
	res, err := sftm.Match(oldDoc, newDoc, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make(map[*dom.Node]*dom.Node)
	for oi, ni := range res.OldToNew {
		if oi > 0 && ni >= 0 {
			pairs[res.Old[oi]] = res.New[ni]
		}
	}
	return res, pairs
}

// The inputs of the behaviour tests below; TestMatchEqualsReference
// replays them against the reference matcher too.
const (
	identicalSrc = `<html><body><div class="nav"><a href="/">Home</a><a href="/about">About us</a></div><p>Welcome to the example store, best prices in town.</p></body></html>`

	wrapperOld = `<html><body><h1>Quarterly results</h1><p>Revenue grew twelve percent year over year.</p></body></html>`
	wrapperNew = `<html><body><div class="wrap"><h1>Quarterly results</h1><p>Revenue grew twelve percent year over year.</p></div></body></html>`

	churnOld = `<html><body><ul><li class="item">First entry about apples</li><li class="item">Second entry about oranges</li><li class="item">Third entry about pears</li></ul></body></html>`
	churnNew = `<html><body><ul><li class="item odd">First entry about apples</li><li class="item even">Second entry about oranges</li><li class="item odd">Third entry about pears</li></ul></body></html>`

	reorderOld = `<html><body><div><h2>Alpha section heading</h2><p>The alpha paragraph speaks of mountains.</p></div><div><h2>Beta section heading</h2><p>The beta paragraph speaks of rivers.</p></div></body></html>`
	reorderNew = `<html><body><div><h2>Beta section heading</h2><p>The beta paragraph speaks of rivers.</p></div><div><h2>Alpha section heading</h2><p>The alpha paragraph speaks of mountains.</p></div></body></html>`

	rewriteOld = `<html><body><p>Completely original wording here</p></body></html>`
	rewriteNew = `<html><body><p>Entirely different phrasing now</p></body></html>`

	shuffleOld = `<html><body><ul><li>one red</li><li>two blue</li><li>three green</li><li>four teal</li></ul><p>tail text</p></body></html>`
	shuffleNew = `<html><body><p>tail text</p><ul><li>three green</li><li>one red</li><li>five pink</li><li>two blue</li></ul></body></html>`
)

// repeatedCards is 200 identical items: their shared tokens exceed the
// posting cap.
func repeatedCards() string {
	var b strings.Builder
	b.WriteString("<html><body>")
	for i := 0; i < 200; i++ {
		b.WriteString(`<div class="card">same text</div>`)
	}
	b.WriteString("</body></html>")
	return b.String()
}

func TestMatchIdenticalDocuments(t *testing.T) {
	res, pairs := match(t, parse(t, identicalSrc), parse(t, identicalSrc))
	if len(pairs) != len(res.Old)-1 {
		t.Fatalf("matched %d of %d nodes", len(pairs), len(res.Old)-1)
	}
	// Identical documents must match positionally: every pair's paths
	// from the root coincide.
	for o, n := range pairs {
		if pathOf(o) != pathOf(n) {
			t.Errorf("pair %s ↔ %s not positional", pathOf(o), pathOf(n))
		}
	}
}

func pathOf(n *dom.Node) string {
	var parts []string
	for n.Parent != nil {
		idx := n.Index()
		parts = append([]string{n.Name + "#" + string(rune('0'+idx))}, parts...)
		n = n.Parent
	}
	return strings.Join(parts, "/")
}

func TestMatchResultShape(t *testing.T) {
	oldDoc, newDoc := parse(t, shuffleOld), parse(t, shuffleNew)
	res, _ := match(t, oldDoc, newDoc)
	for _, side := range []struct {
		name      string
		got, want []*dom.Node
	}{
		{"old", res.Old, dom.Preorder(oldDoc)},
		{"new", res.New, dom.Preorder(newDoc)},
	} {
		if len(side.got) != len(side.want) {
			t.Fatalf("%s: %d nodes, want %d", side.name, len(side.got), len(side.want))
		}
		for i := range side.got {
			if side.got[i] != side.want[i] {
				t.Fatalf("%s node %d is not the %d-th in pre-order", side.name, i, i)
			}
		}
	}
	if len(res.OldToNew) != len(res.Old) || res.OldToNew[0] != 0 {
		t.Fatalf("OldToNew has %d entries for %d nodes, document → %d", len(res.OldToNew), len(res.Old), res.OldToNew[0])
	}
	seen := make(map[int32]bool)
	for oi, ni := range res.OldToNew {
		if ni < 0 {
			continue
		}
		if int(ni) >= len(res.New) || seen[ni] {
			t.Fatalf("old %d → new %d: out of range or matched twice", oi, ni)
		}
		seen[ni] = true
	}
}

func TestMatchSurvivesWrapperDiv(t *testing.T) {
	_, pairs := match(t, parse(t, wrapperOld), parse(t, wrapperNew))
	// The h1 and p must survive being re-parented into the wrapper.
	var h1Matched, pMatched bool
	for o, n := range pairs {
		if o.Type == dom.Element && o.Name == "h1" && n.Name == "h1" {
			h1Matched = true
		}
		if o.Type == dom.Element && o.Name == "p" && n.Name == "p" {
			pMatched = true
		}
	}
	if !h1Matched || !pMatched {
		t.Fatalf("wrapped nodes lost: h1=%v p=%v (pairs=%d)", h1Matched, pMatched, len(pairs))
	}
}

func TestMatchAttributeChurn(t *testing.T) {
	res, pairs := match(t, parse(t, churnOld), parse(t, churnNew))
	if len(pairs) != len(res.Old)-1 {
		t.Fatalf("matched %d of %d", len(pairs), len(res.Old)-1)
	}
	// Each li must match the li with the same text, not a neighbor.
	for o, n := range pairs {
		if o.Type == dom.Element && o.Name == "li" {
			if o.TextContent() != n.TextContent() {
				t.Errorf("li %q matched to %q", o.TextContent(), n.TextContent())
			}
		}
	}
}

func TestMatchReorderWithoutIDs(t *testing.T) {
	_, pairs := match(t, parse(t, reorderOld), parse(t, reorderNew))
	for o, n := range pairs {
		if o.Type == dom.Text && !strings.Contains(o.Value, " ") {
			continue
		}
		if o.Type == dom.Text && o.Value != n.Value {
			t.Errorf("text %q matched to %q", o.Value, n.Value)
		}
	}
}

func TestMatchTextUpdateAdopted(t *testing.T) {
	_, pairs := match(t, parse(t, rewriteOld), parse(t, rewriteNew))
	// The text shares no tokens, but as the unique unmatched text child
	// of a matched p it must be adopted (so the delta is an update).
	var textMatched bool
	for o := range pairs {
		if o.Type == dom.Text {
			textMatched = true
		}
	}
	if !textMatched {
		t.Fatal("fully-rewritten text node not adopted")
	}
}

func TestMatchRejectsNonDocuments(t *testing.T) {
	doc := parse(t, `<r/>`)
	if _, err := sftm.Match(doc.Children[0], doc, nil); err == nil {
		t.Fatal("want error for element argument")
	}
	if _, err := sftm.Match(nil, doc, nil); err == nil {
		t.Fatal("want error for nil argument")
	}
}

func TestMatchDeterministic(t *testing.T) {
	oldDoc, newDoc := parse(t, shuffleOld), parse(t, shuffleNew)
	_, ref := match(t, oldDoc, newDoc)
	for i := 0; i < 10; i++ {
		_, got := match(t, oldDoc, newDoc)
		if len(got) != len(ref) {
			t.Fatalf("run %d: %d pairs, want %d", i, len(got), len(ref))
		}
		for o, n := range ref {
			if got[o] != n {
				t.Fatalf("run %d: pair diverged", i)
			}
		}
	}
}

func TestStopTokenPruning(t *testing.T) {
	// The shared tokens exceed the posting cap and must be pruned, not
	// blow up candidate scoring.
	src := repeatedCards()
	res, _ := match(t, parse(t, src), parse(t, src))
	candidates, stopTokens := sftm.Counts(res)
	if stopTokens == 0 {
		t.Fatal("expected stop tokens to be pruned")
	}
	if candidates > (len(res.New)-1)*16 {
		t.Fatalf("candidate explosion: %d", candidates)
	}
}

// largePair is a 2000-section page (33.6k nodes) and its 12%-churn
// successor: big enough that a match takes a visible fraction of a
// second.
func largePair(t testing.TB) (oldDoc, newDoc *dom.Node) {
	t.Helper()
	oldDoc = changesim.HTMLPage(rand.New(rand.NewSource(1)), 2000)
	sim, err := changesim.SimulateHTML(oldDoc, changesim.UniformHTML(0.12, 1))
	if err != nil {
		t.Fatal(err)
	}
	return oldDoc, sim.New
}

// A match whose done channel closes midway must stop: a client that
// gave up must not keep a diff worker busy for the rest of a large
// page. The bound is relative to an uncancelled run on the same
// machine, not a wall-clock constant.
func TestMatchStopsWhenCanceled(t *testing.T) {
	oldDoc, newDoc := largePair(t)
	start := time.Now()
	if _, err := sftm.Match(oldDoc, newDoc, nil); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	done := make(chan struct{})
	timer := time.AfterFunc(time.Millisecond, func() { close(done) })
	defer timer.Stop()
	start = time.Now()
	_, err := sftm.Match(oldDoc, newDoc, done)
	took := time.Since(start)
	if !errors.Is(err, sftm.ErrCanceled) {
		t.Fatalf("err = %v after %v, want ErrCanceled (uncancelled run: %v)", err, took, full)
	}
	t.Logf("uncancelled %v, canceled after 1ms %v", full, took)
	if took > full/2 {
		t.Errorf("canceled 1ms in, returned after %v; an uncancelled run takes %v", took, full)
	}
}
