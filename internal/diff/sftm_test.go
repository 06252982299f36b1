package diff

import (
	"testing"

	"xydiff/internal/dom"
	"xydiff/internal/sftm"
)

// TestSFTMPreOrderSeam checks the two facts the index-array seam rests
// on: postOfPre translates sftm's numbering (pre-order, document first)
// into the tree's post-order node for node, and Matching reports
// exactly the pairs diffSFTM's matcher commits.
func TestSFTMPreOrderSeam(t *testing.T) {
	for name, src := range map[string][2]string{
		"mixed": {
			`<?xml-stylesheet href="a.css"?><!--head--><r a="1">lead<e/><p>mixed <b>content</b> here<!--in--></p><?pi body?><e></e><q><e/>tail</q></r><!--foot-->`,
			`<!--head--><r a="2"><e/>lead<p>mixed <b>content</b> there</p><q>tail<e/></q><?pi body?><p>fresh</p></r><?trailer x?>`,
		},
		"page": {
			`<html><body><div class="s"><h2>Alpha heading</h2><p>alpha words about mountains</p><ul><li>one</li><li>two</li></ul></div><div class="s"><h2>Beta heading</h2><p>beta words about rivers</p></div></body></html>`,
			`<html><body><div class="s"><h2>Beta heading</h2><p>beta words about lakes</p></div><div class="w"><div class="s v2"><h2>Alpha heading</h2><p>rewritten entirely</p><ul><li>two</li><li>one</li><li>three</li></ul></div></div></body></html>`,
		},
	} {
		t.Run(name, func(t *testing.T) {
			oldDoc, err := dom.ParseString(src[0])
			if err != nil {
				t.Fatal(err)
			}
			newDoc, err := dom.ParseString(src[1])
			if err != nil {
				t.Fatal(err)
			}
			res, err := sftm.Match(oldDoc, newDoc, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := newMatcher(oldDoc, newDoc, Options{Matcher: MatcherSFTM}, false)
			defer m.release()
			oldT, newT := m.old, m.new
			for side, c := range map[string]struct {
				t   *tree
				pre []*dom.Node
			}{"old": {oldT, res.Old}, "new": {newT, res.New}} {
				post := postOfPre(c.t)
				if len(post) != len(c.pre) {
					t.Fatalf("%s: postOfPre has %d entries, sftm numbered %d nodes", side, len(post), len(c.pre))
				}
				for i, n := range c.pre {
					if c.t.nodes[post[i]] != n {
						t.Fatalf("%s: pre-order node %d maps to post-order %d, a different node", side, i, post[i])
					}
				}
				if int(post[0]) != c.t.root() {
					t.Fatalf("%s: the document maps to %d, not the root %d", side, post[0], c.t.root())
				}
			}

			if err := m.matchSFTM(); err != nil {
				t.Fatal(err)
			}
			pairs, err := Matching(oldDoc, newDoc, Options{Matcher: MatcherSFTM})
			if err != nil {
				t.Fatal(err)
			}
			committed := 0
			for oi, ni := range m.oldToNew {
				if ni < 0 || oi == oldT.root() {
					continue
				}
				committed++
				if pairs[oldT.nodes[oi]] != newT.nodes[ni] {
					t.Fatalf("diffSFTM committed %s → %s; Matching has no such pair", oldT.nodes[oi].Path(), newT.nodes[ni].Path())
				}
			}
			if m.oldToNew[oldT.root()] != newT.root() {
				t.Fatal("documents not matched")
			}
			if committed != len(pairs) || committed == 0 {
				t.Fatalf("diffSFTM committed %d pairs, Matching returned %d", committed, len(pairs))
			}
		})
	}
}

// A match that sftm abandons because done closed must surface as the
// package's own sentinel, which DiffContext turns into ctx.Err().
func TestSFTMCancellationBecomesErrCanceled(t *testing.T) {
	doc, err := dom.ParseString(`<r><a>one</a><b>two</b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	if _, err := runSFTM(doc, doc.Clone(), done); err != errCanceled {
		t.Fatalf("runSFTM: err = %v, want errCanceled", err)
	}
	if _, err := Matching(doc, doc.Clone(), Options{Matcher: MatcherSFTM, done: done}); err != errCanceled {
		t.Fatalf("Matching: err = %v, want errCanceled", err)
	}
}
