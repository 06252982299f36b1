package diff

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
	"xydiff/internal/dtd"
	"xydiff/internal/xid"
)

func parse(t *testing.T, s string) *dom.Node {
	t.Helper()
	d, err := dom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// roundTrip asserts the central correctness property from the paper:
// the delta misses no changes. Applying it to the old version must
// produce the new version; applying its inverse must come back.
func roundTrip(t *testing.T, oldXML, newXML string, opts Options) *delta.Delta {
	t.Helper()
	oldDoc, newDoc := parse(t, oldXML), parse(t, newXML)
	d, err := Diff(oldDoc, newDoc, opts)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	got, err := delta.ApplyClone(oldDoc, d)
	if err != nil {
		t.Fatalf("Apply: %v\ndelta:\n%s", err, d)
	}
	if !dom.Equal(got, newDoc) {
		t.Fatalf("apply(old, delta) != new: %s\ndelta:\n%s\ngot: %s", dom.Diagnose(got, newDoc), d, got)
	}
	// Invert works in place, and the caller inspects d: invert a copy.
	inv, err := (&delta.Delta{Ops: slices.Clone(d.Ops), NextXID: d.NextXID}).Invert()
	if err != nil {
		t.Fatalf("Invert: %v\ndelta:\n%s", err, d)
	}
	back, err := delta.ApplyClone(got, inv)
	if err != nil {
		t.Fatalf("Apply inverse: %v\ndelta:\n%s", err, d)
	}
	if !dom.Equal(back, oldDoc) {
		t.Fatalf("invert round trip: %s", dom.Diagnose(back, oldDoc))
	}
	return d
}

func TestDiffIdenticalDocuments(t *testing.T) {
	xml := `<a><b>one</b><c x="1"><d/></c></a>`
	d := roundTrip(t, xml, xml, Options{})
	if !d.Empty() {
		t.Fatalf("identical documents produced ops:\n%s", d)
	}
}

func TestDiffPaperExample(t *testing.T) {
	oldXML := `<Category><Title>Digital Cameras</Title><Discount><Product><Name>tx123</Name><Price>$499</Price></Product></Discount><NewProducts><Product><Name>zy456</Name><Price>$799</Price></Product></NewProducts></Category>`
	newXML := `<Category><Title>Digital Cameras</Title><Discount><Product><Name>zy456</Name><Price>$699</Price></Product></Discount><NewProducts><Product><Name>abc</Name><Price>$899</Price></Product></NewProducts></Category>`
	d := roundTrip(t, oldXML, newXML, Options{})
	c := d.Count()
	// The paper's expected delta: one delete (tx123), one insert (abc),
	// one move (zy456's product), one update (the price).
	if c.Deletes != 1 || c.Inserts != 1 || c.Moves != 1 || c.Updates != 1 {
		t.Fatalf("counts = %v, want 1 of each (delta:\n%s)", c, d)
	}
}

func TestDiffSingleTextUpdate(t *testing.T) {
	d := roundTrip(t,
		`<doc><p>hello</p><p>world</p></doc>`,
		`<doc><p>hello</p><p>there</p></doc>`, Options{})
	c := d.Count()
	if c.Total() != 1 || c.Updates != 1 {
		t.Fatalf("expected exactly one update, got %v:\n%s", c, d)
	}
}

func TestDiffPureInsert(t *testing.T) {
	d := roundTrip(t,
		`<list><item>a</item><item>b</item></list>`,
		`<list><item>a</item><item>new</item><item>b</item></list>`, Options{})
	c := d.Count()
	if c.Inserts != 1 || c.Deletes != 0 || c.Moves != 0 {
		t.Fatalf("counts = %v:\n%s", c, d)
	}
}

func TestDiffPureDelete(t *testing.T) {
	d := roundTrip(t,
		`<list><item>a</item><item>b</item><item>c</item></list>`,
		`<list><item>a</item><item>c</item></list>`, Options{})
	c := d.Count()
	if c.Deletes != 1 || c.Inserts != 0 {
		t.Fatalf("counts = %v:\n%s", c, d)
	}
}

func TestDiffMoveAcrossParents(t *testing.T) {
	d := roundTrip(t,
		`<r><left><big><x>1</x><y>2</y><z>3</z></big></left><right/></r>`,
		`<r><left/><right><big><x>1</x><y>2</y><z>3</z></big></right></r>`, Options{})
	c := d.Count()
	if c.Moves != 1 || c.Inserts != 0 || c.Deletes != 0 {
		t.Fatalf("expected a single move, got %v:\n%s", c, d)
	}
}

func TestDiffPermutationWithinParent(t *testing.T) {
	d := roundTrip(t,
		`<r><a>1</a><b>2</b><c>3</c><d>4</d></r>`,
		`<r><b>2</b><c>3</c><d>4</d><a>1</a></r>`, Options{})
	c := d.Count()
	if c.Moves != 1 || c.Inserts != 0 || c.Deletes != 0 {
		t.Fatalf("one intra-parent move expected, got %v:\n%s", c, d)
	}
}

func TestDiffAttributeChanges(t *testing.T) {
	d := roundTrip(t,
		`<r><e a="1" b="2" c="3">text</e></r>`,
		`<r><e a="1" b="20" d="4">text</e></r>`, Options{})
	c := d.Count()
	if c.AttrOps != 3 || c.Total() != 3 {
		t.Fatalf("expected exactly 3 attribute ops, got %v:\n%s", c, d)
	}
}

func TestDiffIDAttributesForceMatching(t *testing.T) {
	// Two products swap names; with pid declared as an ID attribute
	// the products must be matched by pid, producing value updates
	// rather than delete+insert.
	oldXML := `<!DOCTYPE catalog [<!ATTLIST product pid ID #REQUIRED>]>
<catalog><product pid="p1"><name>alpha</name></product><product pid="p2"><name>beta</name></product></catalog>`
	newXML := `<!DOCTYPE catalog [<!ATTLIST product pid ID #REQUIRED>]>
<catalog><product pid="p1"><name>beta prime</name></product><product pid="p2"><name>alpha prime</name></product></catalog>`
	d := roundTrip(t, oldXML, newXML, Options{})
	c := d.Count()
	if c.Updates != 2 || c.Deletes != 0 || c.Inserts != 0 {
		t.Fatalf("ID matching should force 2 updates, got %v:\n%s", c, d)
	}
}

func TestDiffExplicitIDAttrs(t *testing.T) {
	oldXML := `<catalog><product pid="p1"><name>alpha</name></product><product pid="p2"><name>beta</name></product></catalog>`
	newXML := `<catalog><product pid="p2"><name>beta</name></product><product pid="p1"><name>alpha</name></product></catalog>`
	opts := Options{IDAttrs: dtd.IDAttrs{"product": "pid"}}
	d := roundTrip(t, oldXML, newXML, opts)
	c := d.Count()
	if c.Moves != 1 || c.Deletes != 0 || c.Inserts != 0 || c.Updates != 0 {
		t.Fatalf("swap with IDs should be one move, got %v:\n%s", c, d)
	}
}

func TestDiffIDExclusionPreventsOtherMatches(t *testing.T) {
	// Same content, different ID values: the paper says nodes carrying
	// an unmatched ID cannot be matched at all, so this must be a
	// delete + insert despite identical subtree signatures.
	opts := Options{IDAttrs: dtd.IDAttrs{"product": "pid"}}
	d := roundTrip(t,
		`<catalog><product pid="p1"><name>alpha</name></product></catalog>`,
		`<catalog><product pid="p9"><name>alpha</name></product></catalog>`, opts)
	c := d.Count()
	if c.Deletes != 1 || c.Inserts != 1 {
		t.Fatalf("unmatched IDs must force delete+insert, got %v:\n%s", c, d)
	}
}

func TestDiffLazyDownPriceUpdate(t *testing.T) {
	// The paper's lazy-down scenario: matching Name/zy456 pulls up the
	// Product, and the Price children then match via propagation even
	// though their subtrees differ.
	d := roundTrip(t,
		`<shop><Product><Name>zy456</Name><Price>$799</Price></Product><Product><Name>ab</Name><Price>$1</Price></Product></shop>`,
		`<shop><Product><Name>zy456</Name><Price>$699</Price></Product><Product><Name>ab</Name><Price>$1</Price></Product></shop>`,
		Options{})
	c := d.Count()
	if c.Updates != 1 || c.Deletes != 0 || c.Inserts != 0 {
		t.Fatalf("expected a single price update, got %v:\n%s", c, d)
	}
}

func TestDiffRootRelabeled(t *testing.T) {
	d := roundTrip(t, `<a><x>1</x></a>`, `<b><x>1</x></b>`, Options{})
	c := d.Count()
	if c.Deletes != 1 || c.Inserts != 1 {
		t.Fatalf("root relabel should delete+insert the root, got %v:\n%s", c, d)
	}
}

func TestDiffCommentsAndProcInsts(t *testing.T) {
	roundTrip(t,
		`<r><!--note--><?pi data?><x/></r>`,
		`<r><!--changed--><?pi other?><x/></r>`, Options{})
}

func TestDiffTextTypeChanges(t *testing.T) {
	roundTrip(t, `<r><a>text</a></r>`, `<r><a><sub/></a></r>`, Options{})
	roundTrip(t, `<r>just text</r>`, `<r><el/></r>`, Options{})
}

func TestDiffEmptyToContent(t *testing.T) {
	roundTrip(t, `<r/>`, `<r><a/><b>x</b></r>`, Options{})
	roundTrip(t, `<r><a/><b>x</b></r>`, `<r/>`, Options{})
}

func TestDiffMovedAndUpdatedSubtree(t *testing.T) {
	// A subtree that moves AND has an internal update: the move must be
	// detected (bottom-up from the unchanged heavy part) and the update
	// applied inside the moved subtree.
	roundTrip(t,
		`<r><src><prod><name>very long stable product name</name><price>10</price></prod></src><dst/></r>`,
		`<r><src/><dst><prod><name>very long stable product name</name><price>12</price></prod></dst></r>`,
		Options{})
}

func TestDiffDuplicateSubtreesPickParentSupported(t *testing.T) {
	// Two identical subtrees; one's parent is matched. The candidate
	// with the matched parent must win, keeping the delta minimal.
	d := roundTrip(t,
		`<r><keep><dup><v>same</v></dup></keep><other><dup><v>same</v></dup></other></r>`,
		`<r><keep><dup><v>same</v></dup></keep><other><dup><v>same</v></dup><extra/></other></r>`,
		Options{})
	c := d.Count()
	if c.Inserts != 1 || c.Total() != 1 {
		t.Fatalf("expected only the <extra/> insert, got %v:\n%s", c, d)
	}
}

func TestDiffDetailedStats(t *testing.T) {
	oldDoc := parse(t, `<a><b>one</b><c>two</c></a>`)
	newDoc := parse(t, `<a><b>one</b><c>three</c></a>`)
	r, err := DiffDetailed(oldDoc, newDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.OldNodes != 6 || r.NewNodes != 6 {
		t.Errorf("node counts = %d,%d, want 6,6", r.OldNodes, r.NewNodes)
	}
	if r.MatchedNodes != 6 {
		t.Errorf("matched = %d, want 6 (text updated in place)", r.MatchedNodes)
	}
	if r.Timings.Total() <= 0 {
		t.Error("timings not recorded")
	}
}

func TestDiffErrors(t *testing.T) {
	doc := parse(t, `<a/>`)
	if _, err := Diff(nil, doc, Options{}); err == nil {
		t.Error("nil old accepted")
	}
	if _, err := Diff(doc, nil, Options{}); err == nil {
		t.Error("nil new accepted")
	}
	if _, err := Diff(doc.Root(), doc, Options{}); err == nil {
		t.Error("element node accepted as document")
	}
}

func TestDiffPreservesXIDsAcrossVersions(t *testing.T) {
	oldDoc := parse(t, `<r><keep>stable</keep><del/></r>`)
	newDoc := parse(t, `<r><keep>stable</keep><ins/></r>`)
	xid.Assign(oldDoc)
	keepXID := dom.Select(oldDoc.Root(), "keep")[0].XID
	d, err := Diff(oldDoc, newDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	newKeep := dom.Select(newDoc.Root(), "keep")[0]
	if newKeep.XID != keepXID {
		t.Errorf("keep XID = %d, want %d (persistent identity lost)", newKeep.XID, keepXID)
	}
	ins := dom.Select(newDoc.Root(), "ins")[0]
	if ins.XID == 0 {
		t.Error("inserted node has no XID")
	}
	if d.NextXID <= ins.XID {
		t.Errorf("NextXID %d must exceed all assigned XIDs (%d)", d.NextXID, ins.XID)
	}
}

func TestDiffSequentialVersions(t *testing.T) {
	// Three versions diffed pairwise; deltas chain.
	v1 := parse(t, `<log><e>1</e></log>`)
	v2 := parse(t, `<log><e>1</e><e>2</e></log>`)
	v3 := parse(t, `<log><e>2</e><e>3</e></log>`)
	d12, err := Diff(v1, v2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d23, err := Diff(v2, v3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := delta.ApplyClone(v1, d12)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := delta.ApplyClone(got, d23)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(got2, v3) {
		t.Fatalf("chained application differs: %s", dom.Diagnose(got2, v3))
	}
}

func TestDiffOptionsVariants(t *testing.T) {
	oldXML := `<r><a><k>111</k></a><b><k>222</k></b><c><k>333</k></c></r>`
	newXML := `<r><c><k>333</k></c><a><k>111x</k></a><b><k>222</k></b></r>`
	for _, opts := range []Options{
		{},
		{EagerDown: true},
		{DisableIDAttributes: true},
		{LISWindow: -1},
		{LISWindow: 2},
		{PropagationPasses: 3},
		{MaxAncestorDepth: 5},
	} {
		roundTrip(t, oldXML, newXML, opts)
	}
}

func TestDiffDeltaXMLRoundTripApplies(t *testing.T) {
	oldDoc := parse(t, `<r><a>1</a><b>2</b></r>`)
	newDoc := parse(t, `<r><b>2</b><a>3</a><c/></r>`)
	d, err := Diff(oldDoc, newDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	text, err := d.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := delta.ParseString(string(text))
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	got, err := delta.ApplyClone(oldDoc, d2)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(got, newDoc) {
		t.Fatalf("serialized delta apply differs: %s", dom.Diagnose(got, newDoc))
	}
}

// randomDoc builds a random labeled tree for fuzz-style round trips.
func randomDoc(rng *rand.Rand, maxNodes int) *dom.Node {
	doc := dom.NewDocument()
	root := dom.NewElement("root")
	doc.Append(root)
	nodes := []*dom.Node{root}
	labels := []string{"a", "b", "c", "item", "name"}
	budget := rng.Intn(maxNodes)
	for i := 0; i < budget; i++ {
		p := nodes[rng.Intn(len(nodes))]
		if rng.Intn(4) == 0 {
			// text child, only if last child isn't text
			if k := len(p.Children); k == 0 || p.Children[k-1].Type != dom.Text {
				p.Append(dom.NewText(fmt.Sprintf("t%d", rng.Intn(50))))
			}
			continue
		}
		el := dom.NewElement(labels[rng.Intn(len(labels))])
		if rng.Intn(3) == 0 {
			el.SetAttribute("k", fmt.Sprintf("%d", rng.Intn(10)))
		}
		p.Append(el)
		nodes = append(nodes, el)
	}
	return doc
}

func TestDiffRandomPairsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		oldDoc := randomDoc(rng, 40)
		newDoc := randomDoc(rng, 40)
		d, err := Diff(oldDoc, newDoc, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := delta.ApplyClone(oldDoc, d)
		if err != nil {
			t.Fatalf("trial %d apply: %v\nold: %s\nnew: %s\ndelta:\n%s", trial, err, oldDoc, newDoc, d)
		}
		if !dom.Equal(got, newDoc) {
			t.Fatalf("trial %d mismatch: %s\nold: %s\nnew: %s\ndelta:\n%s", trial, dom.Diagnose(got, newDoc), oldDoc, newDoc, d)
		}
		inv, err := d.Invert()
		if err != nil {
			t.Fatalf("trial %d invert: %v", trial, err)
		}
		back, err := delta.ApplyClone(got, inv)
		if err != nil {
			t.Fatalf("trial %d invert apply: %v", trial, err)
		}
		if !dom.Equal(back, oldDoc) {
			t.Fatalf("trial %d invert mismatch: %s", trial, dom.Diagnose(back, oldDoc))
		}
	}
}

func TestDiffRandomMutationsRoundTrip(t *testing.T) {
	// Mutate a document rather than diffing two unrelated ones: this
	// exercises the matcher's intended regime (mostly-similar trees).
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 120; trial++ {
		oldDoc := randomDoc(rng, 60)
		newDoc := oldDoc.Clone()
		mutate(rng, newDoc, 1+rng.Intn(8))
		d, err := Diff(oldDoc, newDoc, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := delta.ApplyClone(oldDoc, d)
		if err != nil {
			t.Fatalf("trial %d apply: %v\nold: %s\nnew: %s\ndelta:\n%s", trial, err, oldDoc, newDoc, d)
		}
		if !dom.Equal(got, newDoc) {
			t.Fatalf("trial %d mismatch: %s\nold: %s\nnew: %s\ndelta:\n%s", trial, dom.Diagnose(got, newDoc), oldDoc, newDoc, d)
		}
	}
}

// mutate applies n random edits in place.
func mutate(rng *rand.Rand, doc *dom.Node, n int) {
	for i := 0; i < n; i++ {
		nodes := dom.Preorder(doc)
		target := nodes[rng.Intn(len(nodes))]
		switch rng.Intn(5) {
		case 0: // update text
			if target.Type == dom.Text {
				target.Value = fmt.Sprintf("u%d", rng.Intn(100))
			}
		case 1: // delete (not the document or root)
			if target.Parent != nil && target.Parent.Type != dom.Document {
				target.Detach()
			}
		case 2: // insert element
			if target.Type == dom.Element {
				el := dom.NewElement("ins")
				el.Append(dom.NewText(fmt.Sprintf("v%d", rng.Intn(100))))
				target.InsertAt(rng.Intn(len(target.Children)+1), el)
			}
		case 3: // move
			if target.Parent != nil && target.Parent.Type != dom.Document && target.Type == dom.Element {
				elems := []*dom.Node{}
				for _, cand := range nodes {
					if cand.Type == dom.Element && !contains(target, cand) {
						elems = append(elems, cand)
					}
				}
				if len(elems) > 0 {
					dst := elems[rng.Intn(len(elems))]
					target.Detach()
					dst.InsertAt(rng.Intn(len(dst.Children)+1), target)
				}
			}
		case 4: // attribute tweak
			if target.Type == dom.Element {
				target.SetAttribute("m", fmt.Sprintf("%d", rng.Intn(10)))
			}
		}
	}
}

func contains(root, n *dom.Node) bool {
	for ; n != nil; n = n.Parent {
		if n == root {
			return true
		}
	}
	return false
}

func TestTreeAnnotation(t *testing.T) {
	doc := parse(t, `<a><b>text</b><c/></a>`)
	tr := newTree(doc, true, nil)
	if tr.len() != 5 {
		t.Fatalf("len = %d, want 5", tr.len())
	}
	if tr.root() != 4 || tr.nodes[tr.root()].Type != dom.Document {
		t.Fatal("root must be the document node, last in post-order")
	}
	// Weight of the document >= weight of <a> >= children sum.
	if tr.weight[tr.root()] < tr.weight[3] {
		t.Error("document weight below root element weight")
	}
	// text "text": weight 1 + log2(5) > 3.3 -> element b > that.
	b := doc.Root().Children[0]
	if tr.weight[slices.Index(tr.nodes, b)] <= tr.weight[slices.Index(tr.nodes, b.Children[0])] {
		t.Error("element weight must exceed its child's")
	}
	// Identical subtrees share a signature; different ones do not.
	doc2 := parse(t, `<a><b>text</b><c/></a>`)
	tr2 := newTree(doc2, true, nil)
	if tr.sig[tr.root()] != tr2.sig[tr2.root()] {
		t.Error("identical documents must share signatures")
	}
	doc3 := parse(t, `<a><b>texx</b><c/></a>`)
	tr3 := newTree(doc3, true, nil)
	if tr.sig[tr.root()] == tr3.sig[tr3.root()] {
		t.Error("different documents share root signature")
	}
}

// TestTreeRecordsXIDFacts: the build records Phase 5's two facts about
// a document, its largest XID and whether any node has none, in the
// walk it already makes; a zero anywhere counts, not only at the root.
func TestTreeRecordsXIDFacts(t *testing.T) {
	doc := parse(t, `<a><b>text</b><c/></a>`)
	facts := func() (int64, bool) {
		tr := newTree(doc, false, nil)
		defer tr.release()
		return tr.maxXID, tr.missingXID
	}
	if max, missing := facts(); max != 0 || !missing {
		t.Fatalf("unstamped: max %d, missing %v", max, missing)
	}
	xid.Assign(doc)
	if max, missing := facts(); max != 5 || missing {
		t.Fatalf("stamped: max %d, missing %v; want 5, false", max, missing)
	}
	c := doc.Root().Children[1]
	c.XID = 99
	if max, missing := facts(); max != 99 || missing {
		t.Fatalf("a leaf at 99: max %d, missing %v; want 99, false", max, missing)
	}
	c.XID = 0
	if _, missing := facts(); !missing {
		t.Fatal("a leaf without an XID is not counted as missing")
	}
}

// TestDiffAssignsXIDsWhenAnyIsMissing: an old document with one node
// unstamped gets fresh post-order XIDs, as one with none does.
func TestDiffAssignsXIDsWhenAnyIsMissing(t *testing.T) {
	oldDoc := parse(t, `<r><a>1</a><b>2</b></r>`)
	xid.Assign(oldDoc)
	dom.Select(oldDoc.Root(), "a")[0].XID = 0
	dom.Select(oldDoc.Root(), "b")[0].XID = 40
	if _, err := Diff(oldDoc, parse(t, `<r><a>1</a><b>3</b></r>`), Options{}); err != nil {
		t.Fatal(err)
	}
	next := int64(1)
	dom.WalkPost(oldDoc, func(n *dom.Node) bool {
		if n.XID != next {
			t.Fatalf("old node %s has XID %d, want %d in post-order", n.Name, n.XID, next)
		}
		next++
		return true
	})
}

func TestSignatureAttrOrderInsensitive(t *testing.T) {
	a := newTree(parse(t, `<e x="1" y="2"/>`), true, nil)
	b := newTree(parse(t, `<e y="2" x="1"/>`), true, nil)
	if a.sig[a.root()] != b.sig[b.root()] {
		t.Error("attribute order changed the signature")
	}
}

func TestSignatureConcatenationAmbiguity(t *testing.T) {
	// "ab"+"" vs "a"+"b" style ambiguities must not collide.
	a := newTree(parse(t, `<r><e n="ab"/></r>`), true, nil)
	b := newTree(parse(t, `<r><e n="a" m="b"/></r>`), true, nil)
	if a.sig[a.root()] == b.sig[b.root()] {
		t.Error("attribute concatenation collision")
	}
}

func TestDepthBoundGrowsWithWeight(t *testing.T) {
	doc := parse(t, strings.Repeat("<a>", 1)+"<b><c><d/></c></b>"+strings.Repeat("</a>", 1))
	m := newMatcher(doc, doc, Options{}, false)
	small := m.depthBound(0.001)
	big := m.depthBound(m.old.totalWeight)
	if small < 1 {
		t.Errorf("depth bound must be >= 1, got %d", small)
	}
	if big <= small {
		t.Errorf("heavier subtrees must see further: small=%d big=%d", small, big)
	}
	m2 := newMatcher(doc, doc, Options{MaxAncestorDepth: 7}, false)
	if m2.depthBound(0.5) != 7 {
		t.Error("MaxAncestorDepth override ignored")
	}
}
