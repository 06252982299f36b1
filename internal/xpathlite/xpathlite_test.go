package xpathlite

import (
	"fmt"
	"strings"
	"testing"

	"xydiff/internal/dom"
)

const catalog = `<Catalog>
  <Category kind="photo">
    <Title>Cameras</Title>
    <Product status="new"><Name>tx123</Name><Price>$499</Price></Product>
    <Product><Name>zy456</Name><Price>$799</Price></Product>
  </Category>
  <Category kind="print">
    <Title>Printers</Title>
    <Product><Name>pr1</Name><Price>$120</Price></Product>
  </Category>
  <!-- promo -->
</Catalog>`

func doc(t *testing.T) *dom.Node {
	t.Helper()
	d, err := dom.ParseString(catalog)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func names(nodes []*dom.Node) string {
	var out []string
	for _, n := range nodes {
		switch n.Type {
		case dom.Text:
			out = append(out, "'"+n.Value+"'")
		case dom.Comment:
			out = append(out, "<!---->")
		case dom.Document:
			out = append(out, "#doc")
		default:
			out = append(out, n.Name)
		}
	}
	return strings.Join(out, " ")
}

func sel(t *testing.T, d *dom.Node, expr string) []*dom.Node {
	t.Helper()
	e, err := Compile(expr)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	return e.Select(d)
}

func TestSelectBasicPaths(t *testing.T) {
	d := doc(t)
	cases := []struct{ expr, want string }{
		{"/Catalog/Category/Title", "Title Title"},
		{"/Catalog/Category/Product/Name", "Name Name Name"},
		{"/Catalog/*/Title", "Title Title"},
		{"/", "#doc"},
		{"//Product", "Product Product Product"},
		{"//Name/text()", "'tx123' 'zy456' 'pr1'"},
		{"/Catalog/comment()", "<!---->"},
		{"/Catalog/node()", "Category Category <!---->"},
		{"//Title/..", "Category Category"},
		{"//Title/.", "Title Title"},
		{"/Nope", ""},
	}
	for _, c := range cases {
		if got := names(sel(t, d, c.expr)); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestSelectPositionPredicates(t *testing.T) {
	d := doc(t)
	cases := []struct{ expr, want string }{
		{"/Catalog/Category[1]/Title", "Title"},
		{"/Catalog/Category[2]/Product/Name/text()", "'pr1'"},
		{"/Catalog/Category[1]/Product[2]/Name/text()", "'zy456'"},
		{"/Catalog/Category[last()]/Title/text()", "'Printers'"},
		{"/Catalog/Category[3]", ""},
		{"//Product[1]", "Product Product"}, // first within each category
	}
	for _, c := range cases {
		if got := names(sel(t, d, c.expr)); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestSelectAttributePredicates(t *testing.T) {
	d := doc(t)
	cases := []struct{ expr, want string }{
		{"//Category[@kind='photo']/Title/text()", "'Cameras'"},
		{"//Category[@kind!='photo']/Title/text()", "'Printers'"},
		{"//Product[@status]", "Product"},
		{"//Product[@status='new']/Name/text()", "'tx123'"},
		{"//Product[@missing]", ""},
	}
	for _, c := range cases {
		if got := names(sel(t, d, c.expr)); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestSelectChildValuePredicates(t *testing.T) {
	d := doc(t)
	cases := []struct{ expr, want string }{
		{"//Product[Name='zy456']/Price/text()", "'$799'"},
		{"//Product[Price='$499']/Name/text()", "'tx123'"},
		{"//Product[Name]", "Product Product Product"},
		{"//Product[Serial]", ""},
		{"//Category[Product/Name='pr1']/Title/text()", "'Printers'"},
		{"//Title[text()='Cameras']", "Title"},
		{"//Product[.='tx123$499']", "Product"}, // dot = full text content
	}
	for _, c := range cases {
		if got := names(sel(t, d, c.expr)); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestSelectNumericComparisons(t *testing.T) {
	d := doc(t)
	cases := []struct{ expr, want string }{
		{"//Product[Price>500]/Name/text()", "'zy456'"},
		{"//Product[Price<=499]/Name/text()", "'tx123' 'pr1'"},
		{"//Product[Price>=120]", "Product Product Product"},
		{"//Product[Price<120]", ""},
		{"//Product[Price=799]/Name/text()", "'zy456'"},
		{"//Product[Price!=799]/Name/text()", "'tx123' 'pr1'"},
	}
	for _, c := range cases {
		if got := names(sel(t, d, c.expr)); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestSelectBooleanPredicates(t *testing.T) {
	d := doc(t)
	cases := []struct{ expr, want string }{
		{"//Product[@status='new' and Price<500]/Name/text()", "'tx123'"},
		{"//Product[Price<200 or Price>700]/Name/text()", "'zy456' 'pr1'"},
		{"//Product[@status='new' or Name='pr1'][Price<1000]/Name/text()", "'tx123' 'pr1'"},
	}
	for _, c := range cases {
		if got := names(sel(t, d, c.expr)); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestRelativeSelection(t *testing.T) {
	d := doc(t)
	cat := sel(t, d, "/Catalog/Category[1]")[0]
	e := MustCompile("Product/Name/text()")
	if got := names(e.Select(cat)); got != "'tx123' 'zy456'" {
		t.Errorf("relative select = %q", got)
	}
	// Absolute expressions climb to the root even from a deep context.
	abs := MustCompile("/Catalog/Category[2]/Title/text()")
	if got := names(abs.Select(cat)); got != "'Printers'" {
		t.Errorf("absolute from deep context = %q", got)
	}
}

func TestMatchesAndValue(t *testing.T) {
	d := doc(t)
	products := sel(t, d, "//Product")
	cheap := MustCompile("//Product[Price<500]")
	if !cheap.Matches(products[0]) {
		t.Error("tx123 should match the cheap filter")
	}
	if cheap.Matches(products[1]) {
		t.Error("zy456 should not match the cheap filter")
	}
	if got := MustCompile("//Category[1]/Title").Value(d); got != "Cameras" {
		t.Errorf("Value = %q", got)
	}
	if got := MustCompile("//Missing").Value(d); got != "" {
		t.Errorf("Value of no match = %q", got)
	}
	if MustCompile("//Product").Matches(nil) {
		t.Error("nil node matched")
	}
	if MustCompile("//Product").SelectFirst(d) == nil {
		t.Error("SelectFirst found nothing")
	}
}

func TestSelectNoDuplicates(t *testing.T) {
	d := doc(t)
	// //Product via descendant-or-self could yield duplicates if the
	// evaluator were naive.
	got := sel(t, d, "//*/Product")
	if len(got) != 3 {
		t.Errorf("got %d products, want 3: %s", len(got), names(got))
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"", "]", "//", "/Catalog/", "a[", "a[]", "a[@]", "a[1.5]", "a[0]",
		"a[b=]", "a[=1]", "a[b<>]", "a[foo()]", "a['x'", "a[b!]", "!",
		"a[last(]", "a b", "a[..=1]",
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestCompileAcceptsReasonableNames(t *testing.T) {
	good := []string{
		"ns:elem/sub-name/_x/x.y",
		"//a[@x-y='1']",
		"a[b.c='v']",
		"a[2][@k]",
		`a[@k="double quoted"]`,
		"a[Price=12.5]",
	}
	for _, src := range good {
		if _, err := Compile(src); err != nil {
			t.Errorf("Compile(%q): %v", src, err)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile of bad expression did not panic")
		}
	}()
	MustCompile("[broken")
}

func TestExprString(t *testing.T) {
	src := "//Product[Price>500]"
	if got := MustCompile(src).String(); got != src {
		t.Errorf("String = %q", got)
	}
}

func TestQueryDeltaDocuments(t *testing.T) {
	// The paper's point: deltas are XML, so queries over changes are
	// ordinary queries. Select all price updates from a delta document.
	deltaXML := `<delta>
	  <update xid="11"><old>$799</old><new>$699</new></update>
	  <update xid="19"><old>x</old><new>y</new></update>
	  <insert xid="21" xidmap="(21)" parent="14" pos="1"><Product/></insert>
	</delta>`
	d, err := dom.ParseString(deltaXML)
	if err != nil {
		t.Fatal(err)
	}
	ups := sel(t, d, `/delta/update[old='$799']/new/text()`)
	if names(ups) != "'$699'" {
		t.Errorf("delta query = %q", names(ups))
	}
	ins := sel(t, d, `/delta/insert[@parent='14']`)
	if len(ins) != 1 {
		t.Errorf("insert query found %d", len(ins))
	}
}

func TestCurrencyStripping(t *testing.T) {
	if got := stripCurrency(" $499 "); got != "499" {
		t.Errorf("stripCurrency = %q", got)
	}
	if got := stripCurrency("€10"); got != "10" {
		t.Errorf("stripCurrency euro = %q", got)
	}
}

func TestUnionExpressions(t *testing.T) {
	d := doc(t)
	cases := []struct{ expr, want string }{
		{"//Title | //Product[@status]", "Title Product Title"}, // union results merge in document order
		{"/Catalog/Category[1]/Title/text() | /Catalog/Category[2]/Title/text()", "'Cameras' 'Printers'"},
		{"//Nope | //Title[text()='Printers']", "Title"},
		{"//Title | //Title", "Title Title"}, // self-union deduplicates
	}
	for _, c := range cases {
		if got := names(sel(t, d, c.expr)); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
	for _, bad := range []string{"|", "a|", "|a", "a||b"} {
		if _, err := Compile(bad); err == nil {
			t.Errorf("Compile(%q) accepted", bad)
		}
	}
}

func TestStringFunctions(t *testing.T) {
	d := doc(t)
	cases := []struct{ expr, want string }{
		{"//Product[starts-with(Name,'tx')]/Price/text()", "'$499'"},
		{"//Product[contains(Name,'y45')]/Price/text()", "'$799'"},
		{"//Category[contains(@kind,'hot')]/Title/text()", "'Cameras'"},
		{"//Product[contains(Name,'zzz')]", ""},
		{"//Product[starts-with(Name,'tx') or starts-with(Name,'pr')]", "Product Product"},
	}
	for _, c := range cases {
		if got := names(sel(t, d, c.expr)); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
	for _, bad := range []string{"a[contains(b)]", "a[contains(b,'x'", "a[contains(b,1)]", "a[starts-with(,'x')]"} {
		if _, err := Compile(bad); err == nil {
			t.Errorf("Compile(%q) accepted", bad)
		}
	}
}

// TestSelectDocumentOrder pins the fix for a bug the xptest
// differential harness found: with a descendant step followed by a
// child step, matches were emitted grouped by context node rather than
// in document order, so SelectFirst(`//*/x`) returned the later of two
// matches (the x under the root was visited via context a before the
// deeper context b contributed its earlier x).
func TestSelectDocumentOrder(t *testing.T) {
	d, err := dom.ParseString(`<a><b><x i="1"/></b><x i="2"/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(`//*/x`)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Select(d)
	if len(got) != 2 {
		t.Fatalf("Select(//*/x) returned %d nodes, want 2", len(got))
	}
	for want, n := range []*dom.Node{got[0], got[1]} {
		if v, _ := n.Attribute("i"); v != fmt.Sprintf("%d", want+1) {
			t.Errorf("Select(//*/x)[%d] has i=%q, want %d", want, v, want+1)
		}
	}
	if first := e.SelectFirst(d); first != got[0] {
		t.Errorf("SelectFirst(//*/x) is not the document-order first match")
	}

	// The same grouping bug applied to unions: each branch's results
	// were appended wholesale instead of merging in document order.
	u, err := Compile(`//x[@i='2'] | //b`)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(u.Select(d)); got != "b x" {
		t.Errorf("union order = %q, want %q", got, "b x")
	}
}

// TestMatchSetAgreesWithMatches: a MatchSet built once on the tree (from
// the document or from any node of it) answers for every node what
// Matches computes with a full Select per node — absolute, relative,
// mixed unions, parent and self steps, positional predicates.
func TestMatchSetAgreesWithMatches(t *testing.T) {
	d := doc(t)
	nodes := dom.Preorder(d)
	exprs := []string{
		`//Product[Price>500]`, `//Product`, `/Catalog/Category/Product`, `/`, `//text()`, `//comment()`,
		`Product`, `Price`, `.`, `..`, `../..`, `Name | Price`, `//Title | Product`, `//Product/..`,
		`//Category[2]/Product[1]`, `Product[1]`, `//Product[last()]`, `//*[@status='new'] | Title`, `//nosuch`, `nosuch`,
	}
	for _, src := range exprs {
		e, err := Compile(src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		for _, from := range []*dom.Node{d, d.Root().Children[0], nodes[len(nodes)-1]} {
			set := e.MatchSet(from)
			for _, n := range nodes {
				if got, want := set.Matches(n), e.Matches(n); got != want {
					t.Errorf("%q on %s: MatchSet says %v, Matches says %v", src, n.Path(), got, want)
				}
			}
			if set.Matches(nil) {
				t.Errorf("%q: MatchSet matches nil", src)
			}
		}
		if e.MatchSet(nil).Matches(nil) {
			t.Errorf("%q: a MatchSet of no tree matches nil", src)
		}
	}
}
