package merge

import (
	"strings"
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xpathlite"
)

// scenario prepares a base with XIDs and the two divergent deltas.
func scenario(t *testing.T, baseXML, oursXML, theirsXML string) (*dom.Node, *delta.Delta, *delta.Delta) {
	t.Helper()
	base, err := dom.ParseString(baseXML)
	if err != nil {
		t.Fatal(err)
	}
	oursDoc, err := dom.ParseString(oursXML)
	if err != nil {
		t.Fatal(err)
	}
	theirsDoc, err := dom.ParseString(theirsXML)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := diff.Diff(base, oursDoc, diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	theirs, err := diff.Diff(base, theirsDoc, diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return base, ours, theirs
}

func mergeOK(t *testing.T, base *dom.Node, ours, theirs *delta.Delta) *Result {
	t.Helper()
	res, err := ThreeWay(base, ours, theirs)
	if err != nil {
		t.Fatal(err)
	}
	// The merged document must always reparse (well-formed, unique XIDs
	// not required by serialization but the tree must be sound).
	if _, err := dom.ParseString(res.Doc.String()); err != nil {
		t.Fatalf("merged document broken: %v\n%s", err, res.Doc)
	}
	assertUniqueXIDs(t, res.Doc)
	return res
}

func assertUniqueXIDs(t *testing.T, doc *dom.Node) {
	t.Helper()
	seen := map[int64]string{}
	dom.WalkPre(doc, func(n *dom.Node) bool {
		if n.XID == 0 {
			t.Errorf("node without XID at %s", n.Path())
			return true
		}
		if prev, dup := seen[n.XID]; dup {
			t.Errorf("duplicate XID %d at %s and %s", n.XID, prev, n.Path())
		}
		seen[n.XID] = n.Path()
		return true
	})
}

func TestMergeDisjointEdits(t *testing.T) {
	base, ours, theirs := scenario(t,
		`<doc><a>1</a><b>2</b><c>3</c></doc>`,
		`<doc><a>10</a><b>2</b><c>3</c></doc>`, // ours: update a
		`<doc><a>1</a><b>2</b><c>30</c></doc>`) // theirs: update c
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 0 {
		t.Fatalf("conflicts = %v", res.Conflicts)
	}
	want, _ := dom.ParseString(`<doc><a>10</a><b>2</b><c>30</c></doc>`)
	if !dom.Equal(res.Doc, want) {
		t.Fatalf("merged = %s", res.Doc)
	}
	if res.Applied != 1 {
		t.Errorf("applied = %d", res.Applied)
	}
}

func TestMergeBothInsert(t *testing.T) {
	base, ours, theirs := scenario(t,
		`<list><item>a</item></list>`,
		`<list><item>a</item><item>ours</item></list>`,
		`<list><item>theirs</item><item>a</item></list>`)
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 0 {
		t.Fatalf("conflicts = %v", res.Conflicts)
	}
	items := xpathlite.MustCompile(`//item`).Select(res.Doc)
	if len(items) != 3 {
		t.Fatalf("items = %d: %s", len(items), res.Doc)
	}
	// theirs' item was anchored before "a", ours' after it.
	var texts []string
	for _, it := range items {
		texts = append(texts, it.TextContent())
	}
	if strings.Join(texts, ",") != "theirs,a,ours" {
		t.Errorf("order = %v", texts)
	}
}

func TestMergeUpdateUpdateConflict(t *testing.T) {
	base, ours, theirs := scenario(t,
		`<doc><p>base</p></doc>`,
		`<doc><p>ours</p></doc>`,
		`<doc><p>theirs</p></doc>`)
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 1 || res.Conflicts[0].Kind != updateUpdate {
		t.Fatalf("conflicts = %v", res.Conflicts)
	}
	// Ours wins.
	if got := res.Doc.Root().TextContent(); got != "ours" {
		t.Errorf("merged text = %q", got)
	}
	if !strings.Contains(res.Conflicts[0].String(), "update/update") {
		t.Errorf("conflict string = %q", res.Conflicts[0])
	}
}

func TestMergeConvergentUpdate(t *testing.T) {
	base, ours, theirs := scenario(t,
		`<doc><p>base</p></doc>`,
		`<doc><p>same</p></doc>`,
		`<doc><p>same</p></doc>`)
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 0 || res.Converged != 1 {
		t.Fatalf("conflicts=%v converged=%d", res.Conflicts, res.Converged)
	}
}

func TestMergeUpdateDeleteConflict(t *testing.T) {
	base, ours, theirs := scenario(t,
		`<doc><gone>x</gone><stay/></doc>`,
		`<doc><stay/></doc>`,               // ours deletes
		`<doc><gone>y</gone><stay/></doc>`) // theirs updates inside
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 1 || res.Conflicts[0].Kind != updateDelete {
		t.Fatalf("conflicts = %v", res.Conflicts)
	}
	want, _ := dom.ParseString(`<doc><stay/></doc>`)
	if !dom.Equal(res.Doc, want) {
		t.Errorf("merged = %s", res.Doc)
	}
}

func TestMergeDeleteModifyConflict(t *testing.T) {
	base, ours, theirs := scenario(t,
		`<doc><sec><p>keep me</p></sec><other/></doc>`,
		`<doc><sec><p>edited</p></sec><other/></doc>`, // ours edits inside
		`<doc><other/></doc>`)                         // theirs deletes the section
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 1 || res.Conflicts[0].Kind != deleteModify {
		t.Fatalf("conflicts = %v", res.Conflicts)
	}
	// Ours wins: the edited section survives.
	if got := xpathlite.MustCompile(`//sec/p`).Value(res.Doc); got != "edited" {
		t.Errorf("merged section = %q (%s)", got, res.Doc)
	}
}

func TestMergeConvergentDelete(t *testing.T) {
	base, ours, theirs := scenario(t,
		`<doc><gone/><stay/></doc>`,
		`<doc><stay/></doc>`,
		`<doc><stay/></doc>`)
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 0 || res.Converged != 1 {
		t.Fatalf("conflicts=%v converged=%d", res.Conflicts, res.Converged)
	}
}

func TestMergeMoveAndEdit(t *testing.T) {
	// Theirs moves a subtree; ours edits inside it. Both apply: the
	// move relocates the node (same XID), the edit already happened.
	base, ours, theirs := scenario(t,
		`<doc><src><box><v>1</v></box></src><dst/></doc>`,
		`<doc><src><box><v>2</v></box></src><dst/></doc>`,
		`<doc><src/><dst><box><v>1</v></box></dst></doc>`)
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 0 {
		t.Fatalf("conflicts = %v", res.Conflicts)
	}
	if got := xpathlite.MustCompile(`/doc/dst/box/v`).Value(res.Doc); got != "2" {
		t.Fatalf("moved box should carry ours' edit: %s", res.Doc)
	}
}

func TestMergeMoveMoveConflict(t *testing.T) {
	base, ours, theirs := scenario(t,
		`<doc><box/><a/><b/></doc>`,
		`<doc><a><box/></a><b/></doc>`,
		`<doc><a/><b><box/></b></doc>`)
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 1 || res.Conflicts[0].Kind != moveMove {
		t.Fatalf("conflicts = %v", res.Conflicts)
	}
	// Ours wins: box under a.
	if got := len(xpathlite.MustCompile(`/doc/a/box`).Select(res.Doc)); got != 1 {
		t.Errorf("box location wrong: %s", res.Doc)
	}
}

func TestMergeInsertIntoDeletedParent(t *testing.T) {
	base, ours, theirs := scenario(t,
		`<doc><sec/><other/></doc>`,
		`<doc><other/></doc>`,                        // ours deletes <sec>
		`<doc><sec><new>x</new></sec><other/></doc>`) // theirs inserts under it
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 1 || res.Conflicts[0].Kind != orphaned {
		t.Fatalf("conflicts = %v", res.Conflicts)
	}
	want, _ := dom.ParseString(`<doc><other/></doc>`)
	if !dom.Equal(res.Doc, want) {
		t.Errorf("merged = %s", res.Doc)
	}
}

func TestMergeMoveIntoDeletedParentRollsBack(t *testing.T) {
	base, ours, theirs := scenario(t,
		`<doc><dst/><box>payload</box></doc>`,
		`<doc><box>payload</box></doc>`,            // ours deletes <dst>
		`<doc><dst><box>payload</box></dst></doc>`) // theirs moves box into it
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 1 || res.Conflicts[0].Kind != orphaned {
		t.Fatalf("conflicts = %v", res.Conflicts)
	}
	// The box must not be lost: rolled back to its original spot.
	if got := len(xpathlite.MustCompile(`//box`).Select(res.Doc)); got != 1 {
		t.Fatalf("box lost in merge: %s", res.Doc)
	}
}

func TestMergeAttributeConflicts(t *testing.T) {
	base, ours, theirs := scenario(t,
		`<doc><e a="1" b="2" c="3"/></doc>`,
		`<doc><e a="10" b="2" c="3" d="9"/></doc>`,
		`<doc><e a="11" b="20" c="3" d="9"/></doc>`)
	res := mergeOK(t, base, ours, theirs)
	// a: both changed differently -> conflict. b: theirs only -> applied.
	// d: both inserted same value -> converged.
	var kinds []ConflictKind
	for _, c := range res.Conflicts {
		kinds = append(kinds, c.Kind)
	}
	if len(res.Conflicts) != 1 || res.Conflicts[0].Kind != attrConflict {
		t.Fatalf("conflicts = %v (%v)", res.Conflicts, kinds)
	}
	e := xpathlite.MustCompile(`//e`).SelectFirst(res.Doc)
	if v, _ := e.Attribute("a"); v != "10" {
		t.Errorf("a = %q, ours should win", v)
	}
	if v, _ := e.Attribute("b"); v != "20" {
		t.Errorf("b = %q, theirs should apply", v)
	}
	if v, _ := e.Attribute("d"); v != "9" {
		t.Errorf("d = %q", v)
	}
	if res.Converged != 1 {
		t.Errorf("converged = %d", res.Converged)
	}
}

func TestMergeBothInsertDistinctXIDs(t *testing.T) {
	// Both sides insert: fresh XIDs collide between the deltas and must
	// be renumbered (assertUniqueXIDs in mergeOK does the checking).
	base, ours, theirs := scenario(t,
		`<doc><a/></doc>`,
		`<doc><a/><mine><x>1</x></mine></doc>`,
		`<doc><a/><yours><y>2</y></yours></doc>`)
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 0 {
		t.Fatalf("conflicts = %v", res.Conflicts)
	}
	if len(xpathlite.MustCompile(`//mine`).Select(res.Doc)) != 1 ||
		len(xpathlite.MustCompile(`//yours`).Select(res.Doc)) != 1 {
		t.Fatalf("merged = %s", res.Doc)
	}
}

func TestMergeTheirsMoveIntoTheirOwnInsert(t *testing.T) {
	base, ours, theirs := scenario(t,
		`<doc><box>payload</box></doc>`,
		`<doc><box>payload</box><oursextra/></doc>`,
		`<doc><wrap><box>payload</box></wrap></doc>`)
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 0 {
		t.Fatalf("conflicts = %v", res.Conflicts)
	}
	if len(xpathlite.MustCompile(`/doc/wrap/box`).Select(res.Doc)) != 1 {
		t.Fatalf("merged = %s", res.Doc)
	}
	if len(xpathlite.MustCompile(`/doc/oursextra`).Select(res.Doc)) != 1 {
		t.Fatalf("ours' insert lost: %s", res.Doc)
	}
}

func TestMergeErrors(t *testing.T) {
	base, _ := dom.ParseString(`<doc/>`)
	if _, err := ThreeWay(nil, &delta.Delta{}, &delta.Delta{}); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := ThreeWay(base.Root(), &delta.Delta{}, &delta.Delta{}); err == nil {
		t.Error("element base accepted")
	}
	bogus := &delta.Delta{Ops: []delta.Op{delta.Update{XID: 999, Old: "a", New: "b"}}}
	if _, err := ThreeWay(base, bogus, &delta.Delta{}); err == nil {
		t.Error("inapplicable ours accepted")
	}
	if _, err := ThreeWay(base, &delta.Delta{}, bogus); err == nil {
		t.Error("inapplicable theirs accepted")
	}
}

func TestMergeEmptyDeltas(t *testing.T) {
	base, ours, theirs := scenario(t, `<doc><a>1</a></doc>`, `<doc><a>1</a></doc>`, `<doc><a>1</a></doc>`)
	res := mergeOK(t, base, ours, theirs)
	if len(res.Conflicts) != 0 || res.Applied != 0 {
		t.Fatalf("res = %+v", res)
	}
	if !dom.Equal(res.Doc, base) {
		t.Error("merge of empty deltas changed the document")
	}
}

func TestConflictKindStrings(t *testing.T) {
	kinds := []ConflictKind{updateUpdate, updateDelete, deleteModify, moveMove, moveDelete, orphaned, attrConflict}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d name %q", k, s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(ConflictKind(99).String(), "conflict(") {
		t.Error("unknown kind string")
	}
}
