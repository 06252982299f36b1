package xptest

import (
	"math/rand"
	"strings"
	"testing"

	"xydiff/internal/dom"
	"xydiff/internal/xpathlite"
)

const testCatalog = `<Catalog><Category name="Computers"><Product status="new" id="p1"><Title>Laptop</Title><Price>$1499</Price></Product><Product id="p2"><Title>Mouse</Title><Price>$25</Price></Product></Category><Category name="Books"><Product id="p3"><Title>XML in a Nutshell</Title><Price>$40</Price></Product></Category></Catalog>`

func mustParse(t *testing.T, s string) *dom.Node {
	t.Helper()
	doc, err := dom.ParseString(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return doc
}

func names(nodes []*dom.Node) string {
	parts := make([]string, 0, len(nodes))
	for _, n := range nodes {
		switch n.Type {
		case dom.Element:
			parts = append(parts, n.Name)
		case dom.Text:
			parts = append(parts, "text:"+n.Value)
		default:
			parts = append(parts, n.Type.String())
		}
	}
	return strings.Join(parts, " ")
}

// TestNaiveSelectBasics exercises the naive evaluator on its own,
// independent of xpathlite, so a harness failure can be attributed.
func TestNaiveSelectBasics(t *testing.T) {
	doc := mustParse(t, testCatalog)
	cases := []struct {
		query string
		want  string
	}{
		{`/Catalog/Category/Product/Title`, "Title Title Title"},
		{`//Product[@status]`, "Product"},
		{`//Product[Price>100]/Title`, "Title"},
		{`//Category[@name='Books']//text()`, "text:XML in a Nutshell text:$40"},
		{`//Product[2]`, "Product"},
		{`//Product[last()]/Title`, "Title Title"},
		{`//Title[contains(text(),'XML')]`, "Title"},
		{`//Product[starts-with(Title,'L') or @id='p3']`, "Product Product"},
		{`//Product[Price<30 and Title]`, "Product"},
		{`//Title/..`, "Product Product Product"},
		{`//Category[1] | //Category[2]`, "Category Category"},
		{`//missing`, ""},
	}
	for _, tc := range cases {
		got, err := NaiveSelect(doc, tc.query)
		if err != nil {
			t.Errorf("NaiveSelect(%q): %v", tc.query, err)
			continue
		}
		if names(got) != tc.want {
			t.Errorf("NaiveSelect(%q) = %q, want %q", tc.query, names(got), tc.want)
		}
	}
}

func TestNaiveRejectsBadQueries(t *testing.T) {
	for _, q := range []string{``, `[`, `a[`, `a[b=]`, `//`, `a[0]`, `a[1.5]`, `!`, `a'`, `a[foo()]`, `.[1]`} {
		if _, err := naiveParse(q); err == nil {
			t.Errorf("naiveParse(%q) succeeded, want error", q)
		}
		if _, err := xpathlite.Compile(q); err == nil {
			t.Errorf("xpathlite.Compile(%q) succeeded, want error", q)
		}
	}
}

// TestDifferentialRegressions pins minimized counterexamples found by
// the harness. The first entry is the real bug it caught: xpathlite
// grouped //*/x matches by context node, returning the deeper match
// first (fixed in xpathlite's Select by sorting into document order).
func TestDifferentialRegressions(t *testing.T) {
	cases := []struct{ doc, query string }{
		{`<a><b><x i="1"/></b><x i="2"/></a>`, `//*/x`},
		{`<a><b><x i="1"/></b><x i="2"/></a>`, `//node()/x`},
		{testCatalog, `//Product | //Title`},
	}
	for _, tc := range cases {
		if d := CheckRaw(tc.doc, tc.query); d != nil {
			t.Errorf("regression reopened: %s", d)
		}
	}
}

// TestXPathDifferentialSeeded is the deterministic bulk of the
// differential harness: 600 generated documents with 10 queries each,
// i.e. 6000 query×document pairs, every one evaluated from multiple
// context nodes by both evaluators. Runs in tier 1 and in the gate's
// race stage.
func TestXPathDifferentialSeeded(t *testing.T) {
	const cases = 600
	pairs := 0
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(i)*7919 + 1))
		tape := make([]byte, 300)
		rng.Read(tape)
		c := GenCase(NewTape(tape))
		pairs += len(c.Queries)
		if d := Check(c); d != nil {
			sd, sq := Shrink(d.DocXML, d.Query)
			t.Fatalf("case %d diverged: %s\nshrunken doc:   %s\nshrunken query: %s", i, d, sd, sq)
		}
	}
	if pairs < 5000 {
		t.Fatalf("ran %d query×document pairs, want >= 5000", pairs)
	}
	t.Logf("checked %d query×document pairs", pairs)
}

func TestShrinkKeepsNonDivergentInputs(t *testing.T) {
	doc, query := Shrink(testCatalog, `//Product`)
	if doc != testCatalog || query != `//Product` {
		t.Fatalf("Shrink modified a non-divergent pair: %q %q", doc, query)
	}
}

func TestQueryCuts(t *testing.T) {
	cuts := queryCuts(`//a[@k='v']/b | //c`)
	wantAny := map[string]bool{
		`//a[@k='v']/b`: true, // union branch
		`//c`:           true, // union branch
	}
	found := 0
	for _, c := range cuts {
		if wantAny[c] {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("queryCuts missing union branches, got %q", cuts)
	}
	cuts = queryCuts(`//a[@k=']']/b`)
	for _, c := range cuts {
		if c == `//a/b` {
			return // bracket removal respected the quoted ']'
		}
	}
	t.Fatalf("queryCuts did not offer predicate removal, got %q", cuts)
}

func TestGenCaseDeterministic(t *testing.T) {
	tape := make([]byte, 200)
	for i := range tape {
		tape[i] = byte(i * 37)
	}
	a := GenCase(NewTape(tape))
	b := GenCase(NewTape(tape))
	if a.DocXML != b.DocXML {
		t.Fatalf("GenCase not deterministic on documents")
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("GenCase not deterministic on queries: %q vs %q", a.Queries[i], b.Queries[i])
		}
	}
	// Every generated query must be valid in both implementations.
	for _, q := range a.Queries {
		if _, err := xpathlite.Compile(q); err != nil {
			t.Errorf("generated query does not compile: %v", err)
		}
		if _, err := naiveParse(q); err != nil {
			t.Errorf("generated query rejected by naive parser: %v", err)
		}
	}
}

func TestNaiveMatches(t *testing.T) {
	doc := mustParse(t, testCatalog)
	expr := xpathlite.MustCompile(`//Product[@status]`)
	for _, n := range dom.Preorder(doc) {
		want := expr.Matches(n)
		got, err := NaiveMatches(n, `//Product[@status]`)
		if err != nil {
			t.Fatalf("NaiveMatches: %v", err)
		}
		if got != want {
			t.Fatalf("Matches disagree on %s: xpathlite=%v naive=%v", nodePath(n), want, got)
		}
	}
}
