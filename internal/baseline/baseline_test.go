package baseline

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
	"xydiff/internal/lcs"
)

func parse(t *testing.T, s string) *dom.Node {
	t.Helper()
	d, err := dom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

type differ struct {
	name string
	run  func(oldDoc, newDoc *dom.Node) (*delta.Delta, error)
}

var differs = []differ{
	{"LuSelkow", LuSelkow},
	{"LaDiff", LaDiff},
}

// roundTrip checks the fundamental correctness property for the
// matching-based baselines: their deltas transform old into new.
func roundTrip(t *testing.T, name, oldXML, newXML string, run func(o, n *dom.Node) (*delta.Delta, error)) *delta.Delta {
	t.Helper()
	oldDoc, newDoc := parse(t, oldXML), parse(t, newXML)
	d, err := run(oldDoc, newDoc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := delta.ApplyClone(oldDoc, d)
	if err != nil {
		t.Fatalf("%s apply: %v\ndelta:\n%s", name, err, d)
	}
	if !dom.Equal(got, newDoc) {
		t.Fatalf("%s: apply != new: %s\ndelta:\n%s", name, dom.Diagnose(got, newDoc), d)
	}
	return d
}

func TestBaselinesBasicEdits(t *testing.T) {
	cases := []struct{ name, oldXML, newXML string }{
		{"identical", `<a><b>x</b></a>`, `<a><b>x</b></a>`},
		{"text update", `<a><b>x</b><c>y</c></a>`, `<a><b>x</b><c>z</c></a>`},
		{"insert leaf", `<a><b>x</b></a>`, `<a><b>x</b><c>y</c></a>`},
		{"delete leaf", `<a><b>x</b><c>y</c></a>`, `<a><b>x</b></a>`},
		{"insert subtree", `<a><b>x</b></a>`, `<a><b>x</b><s><t>1</t><u>2</u></s></a>`},
		{"relabel root", `<a><b>x</b></a>`, `<z><b>x</b></z>`},
		{"reorder", `<a><b>1</b><c>2</c><d>3</d></a>`, `<a><d>3</d><b>1</b><c>2</c></a>`},
		{"nested update", `<a><b><c><d>deep</d></c></b></a>`, `<a><b><c><d>deeper</d></c></b></a>`},
	}
	for _, df := range differs {
		for _, c := range cases {
			t.Run(df.name+"/"+c.name, func(t *testing.T) {
				roundTrip(t, df.name, c.oldXML, c.newXML, df.run)
			})
		}
	}
}

func TestLuSelkowFindsSingleUpdate(t *testing.T) {
	d := roundTrip(t, "lu",
		`<doc><p>one</p><p>two</p><p>three</p></doc>`,
		`<doc><p>one</p><p>2</p><p>three</p></doc>`, LuSelkow)
	c := d.Count()
	if c.Updates != 1 || c.Deletes != 0 || c.Inserts != 0 {
		t.Fatalf("counts = %v:\n%s", c, d)
	}
}

func TestLuSelkowDistanceProperties(t *testing.T) {
	a := parse(t, `<a><b>x</b><c>y</c></a>`)
	if got := distance(a, a.Clone()); got != 0 {
		t.Errorf("distance to identical copy = %d", got)
	}
	b := parse(t, `<a><b>x</b><c>z</c></a>`)
	if got := distance(a, b); got != 1 {
		t.Errorf("single text update distance = %d, want 1", got)
	}
	// Deleting <c>y</c> (2 nodes) costs 2.
	c := parse(t, `<a><b>x</b></a>`)
	if got := distance(a, c); got != 2 {
		t.Errorf("subtree delete distance = %d, want 2", got)
	}
	// Incompatible roots are infinitely far (delete+insert at a higher
	// level is how they'd be handled by a wrapper).
	d := parse(t, `<z/>`)
	if got := distance(a.Root(), d.Root()); got < luInf {
		t.Errorf("relabel distance = %d, want inf", got)
	}
}

func TestLuSelkowDistanceSymmetricCosts(t *testing.T) {
	a := parse(t, `<a><b>x</b></a>`)
	b := parse(t, `<a><b>x</b><c><d>1</d></c></a>`)
	// Insert of <c><d>1</d></c> (3 nodes) in one direction equals
	// delete in the other.
	if d1, d2 := distance(a, b), distance(b, a); d1 != d2 || d1 != 3 {
		t.Errorf("insert/delete distances = %d, %d, want 3, 3", d1, d2)
	}
}

func TestLaDiffMatchesSimilarText(t *testing.T) {
	// Text changed slightly: LaDiff's similarity threshold should match
	// the leaves and emit an update, not delete+insert.
	d := roundTrip(t, "ladiff",
		`<doc><p>a fairly long paragraph about cameras</p></doc>`,
		`<doc><p>a fairly long paragraph about lenses</p></doc>`, LaDiff)
	c := d.Count()
	if c.Updates != 1 || c.Deletes != 0 {
		t.Fatalf("counts = %v:\n%s", c, d)
	}
}

func TestLaDiffBottomUpMatchesParents(t *testing.T) {
	d := roundTrip(t, "ladiff",
		`<r><sec><p>alpha</p><p>beta</p><p>gamma</p></sec></r>`,
		`<r><sec><p>alpha</p><p>beta</p><p>gamma</p><p>delta</p></sec></r>`, LaDiff)
	c := d.Count()
	if c.Inserts != 1 || c.Deletes != 0 {
		t.Fatalf("expected one insert, got %v:\n%s", c, d)
	}
}

func TestSimilarity(t *testing.T) {
	if similarity("", "") != 1 {
		t.Error("empty strings should be identical")
	}
	if s := similarity("abcdef", "abcxef"); s < 0.5 {
		t.Errorf("one-char change similarity = %f", s)
	}
	if s := similarity("abc", "xyz"); s != 0 {
		t.Errorf("disjoint similarity = %f", s)
	}
	if s := similarity("aaaa", "aa"); s <= 0 || s > 1 {
		t.Errorf("prefix similarity out of range: %f", s)
	}
}

// distance is the raw Selkow edit distance LuSelkow aligns by.
func distance(oldDoc, newDoc *dom.Node) int {
	return newLuMatcher(oldDoc, newDoc).dist(oldDoc, newDoc)
}

// reconstruct replays a DiffMK script, returning the token list of the
// new document, to show the script is lossless even though the
// representation is structure-blind.
func reconstruct(r *DiffMKResult) []string {
	var out []string
	old, next := 0, 0
	for _, e := range r.edits {
		switch e.Kind {
		case lcs.Keep:
			out = append(out, r.oldTokens[old])
			old++
			next++
		case lcs.Delete:
			old++
		case lcs.Insert:
			out = append(out, r.newTokens[next])
			next++
		}
	}
	return out
}

func TestDiffMKLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		oldDoc := randomDoc(rng)
		newDoc := randomDoc(rng)
		r := DiffMK(oldDoc, newDoc)
		got := strings.Join(reconstruct(r), "\x00")
		want := strings.Join(r.newTokens, "\x00")
		if got != want {
			t.Fatalf("DiffMK reconstruction mismatch")
		}
	}
}

func TestDiffMKIdentical(t *testing.T) {
	doc := parse(t, `<a><b attr="1">x</b><!--c--><?pi d?></a>`)
	r := DiffMK(doc, doc.Clone())
	if r.Changed() != 0 {
		t.Errorf("identical docs: changed=%d", r.Changed())
	}
}

func TestDiffMKCountsChanges(t *testing.T) {
	oldDoc := parse(t, `<a><b>x</b></a>`)
	newDoc := parse(t, `<a><b>y</b></a>`)
	r := DiffMK(oldDoc, newDoc)
	if r.Changed() != 2 { // delete "x", insert "y"
		t.Errorf("changed = %d, want 2", r.Changed())
	}
}

func TestFlattenShape(t *testing.T) {
	doc := parse(t, `<a x="1"><b>t</b></a>`)
	toks := flatten(doc)
	want := []string{`<a x="1">`, `<b>`, `t`, `</b>`, `</a>`}
	if len(toks) != len(want) {
		t.Fatalf("Flatten = %v, want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
}

func randomDoc(rng *rand.Rand) *dom.Node {
	doc := dom.NewDocument()
	root := dom.NewElement("root")
	doc.Append(root)
	nodes := []*dom.Node{root}
	for i := 0; i < rng.Intn(30); i++ {
		p := nodes[rng.Intn(len(nodes))]
		if rng.Intn(3) == 0 {
			if k := len(p.Children); k == 0 || p.Children[k-1].Type != dom.Text {
				p.Append(dom.NewText(fmt.Sprintf("t%d", rng.Intn(9))))
			}
			continue
		}
		el := dom.NewElement([]string{"a", "b", "c"}[rng.Intn(3)])
		p.Append(el)
		nodes = append(nodes, el)
	}
	return doc
}

func TestBaselinesRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		oldDoc := randomDoc(rng)
		newDoc := randomDoc(rng)
		for _, df := range differs {
			d, err := df.run(oldDoc.Clone(), newDoc.Clone())
			if err != nil {
				t.Fatalf("%s trial %d: %v", df.name, trial, err)
			}
			// Re-run against fresh clones to avoid XID cross-talk.
			o2 := oldDoc.Clone()
			d2, err := df.run(o2, newDoc.Clone())
			if err != nil {
				t.Fatal(err)
			}
			got, err := delta.ApplyClone(o2, d2)
			if err != nil {
				t.Fatalf("%s trial %d apply: %v\nold=%s\nnew=%s\ndelta:\n%s", df.name, trial, err, oldDoc, newDoc, d)
			}
			if !dom.Equal(got, newDoc) {
				t.Fatalf("%s trial %d mismatch: %s", df.name, trial, dom.Diagnose(got, newDoc))
			}
		}
	}
}
