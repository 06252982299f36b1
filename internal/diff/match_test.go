package diff

import (
	"fmt"
	"strings"
	"testing"

	"xydiff/internal/dom"
)

// TestDuplicateSignatureMeansTwiceInOneDocument pins what dupSig means.
// <s>unique</s> sits under parents that never match (x and y differ in
// label), and MaxAncestorDepth 1 withholds support from any ancestor
// above the parent. Once in each version, its signature is unique and
// is accepted on its own. Twice in the new version, or twice in the
// old one, it is duplicated and is not, although one live candidate
// remains.
func TestDuplicateSignatureMeansTwiceInOneDocument(t *testing.T) {
	for _, tc := range []struct {
		name, oldXML, newXML string
		matched              bool
	}{
		{"once in each", `<r><x><s>unique</s></x></r>`, `<q><y><s>unique</s></y></q>`, true},
		{"twice in new", `<r><x><s>unique</s></x></r>`, `<q><y><s>unique</s></y><z><s>unique</s></z></q>`, false},
		{"twice in old", `<r><x><s>unique</s></x><z><s>unique</s></z></r>`, `<q><y><s>unique</s></y></q>`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oldDoc, err := dom.ParseString(tc.oldXML)
			if err != nil {
				t.Fatal(err)
			}
			newDoc, err := dom.ParseString(tc.newXML)
			if err != nil {
				t.Fatal(err)
			}
			pairs, err := Matching(oldDoc, newDoc, Options{MaxAncestorDepth: 1})
			if err != nil {
				t.Fatal(err)
			}
			s := oldDoc.Children[0].Children[0].Children[0]
			if _, got := pairs[s]; got != tc.matched {
				t.Errorf("old %s matched = %v, want %v (pairs %v)", s.Path(), got, tc.matched, pairs)
			}
		})
	}
}

// TestMatchingCanceledOnPartialTrees cancels before the diff starts on
// documents past the tree builder's 1024-node cancellation check, so
// both trees stop part-built. No matcher may index or match them: each
// must return errCanceled instead of reading the missing nodes. The
// old version declares an ID attribute, so Phase 1 would scan the
// trees too.
func TestMatchingCanceledOnPartialTrees(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE r [<!ATTLIST i id ID #REQUIRED>]><r>`)
	for i := range 3000 {
		fmt.Fprintf(&b, `<i id="k%d"><v>%d</v></i>`, i, i%7)
	}
	b.WriteString(`</r>`)
	oldDoc, err := dom.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	close(done)
	for _, matcher := range Matchers() {
		opts := Options{Matcher: matcher, done: done}
		if _, err := Matching(oldDoc, oldDoc.Clone(), opts); err != errCanceled {
			t.Errorf("%s Matching: err = %v, want errCanceled", matcher, err)
		}
		if _, err := DiffDetailed(oldDoc, oldDoc.Clone(), opts); err != errCanceled {
			t.Errorf("%s DiffDetailed: err = %v, want errCanceled", matcher, err)
		}
	}
}
