package dom

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

const catalogXML = `<Category>
  <Title>Digital Cameras</Title>
  <Discount>
    <Product><Name>tx123</Name><Price>$499</Price></Product>
  </Discount>
  <NewProducts>
    <Product><Name>zy456</Name><Price>$799</Price></Product>
  </NewProducts>
</Category>`

func mustParse(t *testing.T, s string) *Node {
	t.Helper()
	doc, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return doc
}

func TestParseBasicStructure(t *testing.T) {
	doc := mustParse(t, catalogXML)
	if doc.Type != Document {
		t.Fatalf("root type = %v, want document", doc.Type)
	}
	root := doc.Root()
	if root == nil || root.Name != "Category" {
		t.Fatalf("Root() = %v, want Category element", root)
	}
	if got := len(root.Children); got != 3 {
		t.Fatalf("Category has %d children, want 3", got)
	}
	title := root.Children[0]
	if title.Name != "Title" || len(title.Children) != 1 || title.Children[0].Value != "Digital Cameras" {
		t.Errorf("unexpected Title subtree: %s", title)
	}
}

func TestParseDropsWhitespaceOnlyText(t *testing.T) {
	doc := mustParse(t, "<a>\n  <b/>\n  <c/>\n</a>")
	root := doc.Root()
	if len(root.Children) != 2 {
		t.Fatalf("got %d children, want 2 (whitespace dropped)", len(root.Children))
	}
}

func TestParseKeepWhitespaceOption(t *testing.T) {
	doc, err := ParseWithOptions(strings.NewReader("<a> <b/> </a>"), ParseOptions{KeepWhitespace: true})
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if len(root.Children) != 3 {
		t.Fatalf("got %d children, want 3 (whitespace kept)", len(root.Children))
	}
	if root.Children[0].Type != Text || root.Children[2].Type != Text {
		t.Errorf("expected surrounding text nodes, got %v and %v", root.Children[0].Type, root.Children[2].Type)
	}
}

func TestParseAttributes(t *testing.T) {
	doc := mustParse(t, `<p id="x7" class="big">hi</p>`)
	root := doc.Root()
	if v, ok := root.Attribute("id"); !ok || v != "x7" {
		t.Errorf("id attribute = %q,%v", v, ok)
	}
	if v, ok := root.Attribute("class"); !ok || v != "big" {
		t.Errorf("class attribute = %q,%v", v, ok)
	}
	if _, ok := root.Attribute("missing"); ok {
		t.Error("missing attribute reported present")
	}
}

func TestParseMergesAdjacentCharData(t *testing.T) {
	doc := mustParse(t, `<a>one<![CDATA[two]]>three</a>`)
	root := doc.Root()
	if len(root.Children) != 1 {
		t.Fatalf("got %d children, want 1 merged text node", len(root.Children))
	}
	if got := root.Children[0].Value; got != "onetwothree" {
		t.Errorf("merged text = %q", got)
	}
}

func TestParseCommentsAndProcInsts(t *testing.T) {
	doc := mustParse(t, `<a><!-- note --><?target data?><b/></a>`)
	root := doc.Root()
	if len(root.Children) != 3 {
		t.Fatalf("got %d children, want 3", len(root.Children))
	}
	if root.Children[0].Type != Comment || root.Children[0].Value != " note " {
		t.Errorf("comment node = %+v", root.Children[0])
	}
	if root.Children[1].Type != ProcInst || root.Children[1].Name != "target" {
		t.Errorf("procinst node = %+v", root.Children[1])
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "   ", "<a><b></a>", "<a>", "no markup at all"} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", bad)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	doc := mustParse(t, catalogXML)
	out := doc.String()
	doc2 := mustParse(t, out)
	if !Equal(doc, doc2) {
		t.Fatalf("round trip changed tree: %s", Diagnose(doc, doc2))
	}
	if out2 := doc2.String(); out != out2 {
		t.Fatalf("serialization not stable:\n%s\nvs\n%s", out, out2)
	}
}

func TestSerializeEscaping(t *testing.T) {
	doc := NewDocument()
	el := NewElement("m")
	el.SetAttribute("q", `a"b<c>&d`)
	el.Append(NewText(`x < y && z > "w"`))
	doc.Append(el)
	out := doc.String()
	doc2 := mustParse(t, out)
	if !Equal(doc, doc2) {
		t.Fatalf("escaped round trip changed tree: %s (serialized %q)", Diagnose(doc, doc2), out)
	}
}

func TestSerializeCanonicalAttrOrder(t *testing.T) {
	a := NewElement("e")
	a.SetAttribute("b", "2")
	a.SetAttribute("a", "1")
	b := NewElement("e")
	b.SetAttribute("a", "1")
	b.SetAttribute("b", "2")
	if a.String() != b.String() {
		t.Errorf("attribute order leaked into serialization: %q vs %q", a.String(), b.String())
	}
}

func TestEqualIgnoresAttrOrder(t *testing.T) {
	a := mustParse(t, `<e x="1" y="2"/>`)
	b := mustParse(t, `<e y="2" x="1"/>`)
	if !Equal(a, b) {
		t.Error("Equal should ignore attribute order")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	base := `<a><b>t</b><c/></a>`
	for _, other := range []string{
		`<a><b>t</b></a>`,           // child count
		`<a><c/><b>t</b></a>`,       // child order
		`<a><b>u</b><c/></a>`,       // text value
		`<a><B>t</B><c/></a>`,       // label
		`<a x="1"><b>t</b><c/></a>`, // attrs
	} {
		x, y := mustParse(t, base), mustParse(t, other)
		if Equal(x, y) {
			t.Errorf("Equal(%q, %q) = true, want false", base, other)
		}
		if Diagnose(x, y) == "" {
			t.Errorf("Diagnose(%q, %q) empty for unequal trees", base, other)
		}
	}
	x, y := mustParse(t, base), mustParse(t, base)
	if d := Diagnose(x, y); d != "" {
		t.Errorf("Diagnose of equal trees = %q, want empty", d)
	}
}

func TestCloneIsDeepAndIndependent(t *testing.T) {
	doc := mustParse(t, catalogXML)
	clone := doc.Clone()
	if !Equal(doc, clone) {
		t.Fatal("clone not equal to original")
	}
	clone.Root().Children[0].Children[0].Value = "changed"
	if Equal(doc, clone) {
		t.Fatal("mutating clone affected original (or Equal is broken)")
	}
	if doc.Root().Children[0].Children[0].Value != "Digital Cameras" {
		t.Fatal("original mutated by clone edit")
	}
}

// TestCloneKeepsDoctype: a copy of a document keeps its DOCTYPE, the
// DTD the diff reads ID attributes from.
func TestCloneKeepsDoctype(t *testing.T) {
	doc := mustParse(t, `<!DOCTYPE r [<!ATTLIST p id ID #REQUIRED>]><r><p id="a"/></r>`)
	if doc.Value == "" {
		t.Fatal("setup: no DOCTYPE parsed")
	}
	if got := doc.Clone().Value; got != doc.Value {
		t.Errorf("Clone's DOCTYPE = %q, want %q", got, doc.Value)
	}
}

func TestInsertRemoveDetach(t *testing.T) {
	p := NewElement("p")
	a, b, c := NewElement("a"), NewElement("b"), NewElement("c")
	p.Append(a, c)
	if err := p.InsertAt(1, b); err != nil {
		t.Fatalf("InsertAt: %v", err)
	}
	if p.Children[0] != a || p.Children[1] != b || p.Children[2] != c {
		t.Fatalf("InsertAt misplaced children: %v", p.Children)
	}
	if b.Parent != p {
		t.Fatal("InsertAt did not set parent")
	}
	if i := b.Index(); i != 1 {
		t.Fatalf("Index = %d, want 1", i)
	}
	if i := b.Detach(); i != 1 {
		t.Fatalf("Detach returned %d, want 1", i)
	}
	if len(p.Children) != 2 || b.Parent != nil {
		t.Fatal("Detach did not remove node")
	}
	got := p.RemoveAt(0)
	if got != a || len(p.Children) != 1 {
		t.Fatal("RemoveAt(0) wrong")
	}
	if d := NewElement("d"); d.Detach() != -1 {
		t.Error("Detach of orphan should return -1")
	}
}

func TestInsertAtBounds(t *testing.T) {
	p := NewElement("p")
	if err := p.InsertAt(1, NewElement("x")); !errors.Is(err, errOutOfRange) {
		t.Errorf("InsertAt(1) on empty parent = %v, want ErrOutOfRange", err)
	}
	if err := p.InsertAt(-1, NewElement("x")); !errors.Is(err, errOutOfRange) {
		t.Errorf("InsertAt(-1) = %v, want ErrOutOfRange", err)
	}
	if len(p.Children) != 0 {
		t.Errorf("failed InsertAt mutated the tree: %d children", len(p.Children))
	}
	if err := p.InsertAt(0, NewElement("x")); err != nil {
		t.Errorf("InsertAt(0) = %v, want nil", err)
	}
}

// TestNamespaceLexicalRoundTrip pins that names stay in the spelling
// they were written in, whatever namespaces they resolve to: declared
// and undeclared prefixes, the default namespace, the never-declared
// xml: prefix, and two prefixes (or a prefix and the default) bound to
// one URI all serialize back to the source text, which reparses to an
// Equal tree. A parser that names nodes from resolved URIs cannot do
// the last three: it stored xml:lang as a URI that does not reparse,
// and rewrote <p:x/> to <q:x/>.
func TestNamespaceLexicalRoundTrip(t *testing.T) {
	for _, src := range []string{
		`<A:0/>`,
		`<e A:0="x"/>`,
		`<a xmlns="u"><b/></a>`,
		`<p:a xmlns:p="u"><p:b q="1"/></p:a>`,
		`<html xml:lang="en" xml:space="preserve"><p xml:lang="fr">x</p></html>`,
		`<a xmlns:p="u" xmlns:q="u"><p:x/><q:y p:k="1" q:k="2"/></a>`,
		`<a xmlns="u" xmlns:p="u"><b/><p:b/></a>`,
	} {
		doc, err := ParseString(src)
		if err != nil {
			t.Errorf("%s: parse: %v", src, err)
			continue
		}
		out := doc.String()
		if out != src {
			t.Errorf("%s: serialized as %s", src, out)
		}
		re, err := ParseString(out)
		if err != nil {
			t.Errorf("%s: canonical output %q does not reparse: %v", src, out, err)
			continue
		}
		if !Equal(doc, re) {
			t.Errorf("%s: reparse of %q differs: %s", src, out, re.String())
		}
	}
}

// TestCarriageReturnRoundTrip: a carriage return in a tree — from a
// &#13; reference, or put there by a caller building nodes by hand —
// is written as a reference, since a parser reads a literal one as a
// line feed. Written raw, the stored copy of a document came back
// different from the one that was served before it was evicted.
func TestCarriageReturnRoundTrip(t *testing.T) {
	const src = `<a k="1&#13;&#10;2">x&#13;y&#13;
z</a>`
	doc, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if got, _ := root.Attribute("k"); got != "1\r\n2" || root.Children[0].Value != "x\ry\r\nz" {
		t.Fatalf("parsed %q and %q", got, root.Children[0].Value)
	}
	out := doc.String()
	if out != src {
		t.Errorf("serialized as %q", out)
	}
	re, err := ParseString(out)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(doc, re) {
		t.Errorf("reparse differs: %s", Diagnose(doc, re))
	}
}

func TestAttributeMutation(t *testing.T) {
	e := NewElement("e")
	e.SetAttribute("k", "1")
	e.SetAttribute("k", "2")
	if len(e.Attrs) != 1 || e.Attrs[0].Value != "2" {
		t.Fatalf("SetAttribute replace failed: %v", e.Attrs)
	}
	if !e.RemoveAttribute("k") {
		t.Fatal("RemoveAttribute reported absent")
	}
	if e.RemoveAttribute("k") {
		t.Fatal("RemoveAttribute of absent attr reported present")
	}
}

func TestWalkOrders(t *testing.T) {
	doc := mustParse(t, `<a><b><c/></b><d/></a>`)
	var pre, post []string
	name := func(n *Node) string {
		if n.Type == Document {
			return "#doc"
		}
		return n.Name
	}
	WalkPre(doc, func(n *Node) bool { pre = append(pre, name(n)); return true })
	WalkPost(doc, func(n *Node) bool { post = append(post, name(n)); return true })
	if got, want := strings.Join(pre, " "), "#doc a b c d"; got != want {
		t.Errorf("pre-order = %q, want %q", got, want)
	}
	if got, want := strings.Join(post, " "), "c b d a #doc"; got != want {
		t.Errorf("post-order = %q, want %q", got, want)
	}
	if n := len(Postorder(doc)); n != 5 {
		t.Errorf("Postorder count = %d, want 5", n)
	}
	if n := len(Preorder(doc)); n != 5 {
		t.Errorf("Preorder count = %d, want 5", n)
	}
}

func TestWalkPreSkipsSubtree(t *testing.T) {
	doc := mustParse(t, `<a><b><c/></b><d/></a>`)
	var seen []string
	WalkPre(doc, func(n *Node) bool {
		if n.Type == Element {
			seen = append(seen, n.Name)
		}
		return n.Name != "b"
	})
	if got := strings.Join(seen, " "); got != "a b d" {
		t.Errorf("visited %q, want \"a b d\"", got)
	}
}

func TestSizeAndDepth(t *testing.T) {
	doc := mustParse(t, catalogXML)
	if got := doc.Size(); got != 16 {
		t.Errorf("Size = %d, want 16", got)
	}
	name := Select(doc.Root(), "Discount/Product/Name")
	if len(name) != 1 {
		t.Fatalf("Select found %d Name nodes, want 1", len(name))
	}
	depth := 0
	for p := name[0].Parent; p != nil; p = p.Parent {
		depth++
	}
	if depth != 4 {
		t.Errorf("Name has %d ancestors, want 4", depth)
	}
}

func TestTextContent(t *testing.T) {
	doc := mustParse(t, `<a><b>one</b><c>two<d>three</d></c></a>`)
	if got := doc.TextContent(); got != "onetwothree" {
		t.Errorf("TextContent = %q", got)
	}
}

func TestSelect(t *testing.T) {
	doc := mustParse(t, catalogXML)
	root := doc.Root()
	prods := Select(root, "*/Product")
	if len(prods) != 2 {
		t.Fatalf("Select */Product found %d, want 2", len(prods))
	}
	texts := Select(root, "Title/text()")
	if len(texts) != 1 || texts[0].Value != "Digital Cameras" {
		t.Fatalf("Select Title/text() = %v", texts)
	}
	if got := Select(root, "Nope/Product"); len(got) != 0 {
		t.Errorf("Select of absent path = %v", got)
	}
	if got := Select(root, ""); len(got) != 1 || got[0] != root {
		t.Errorf("Select empty path should return receiver")
	}
}

func TestPath(t *testing.T) {
	doc := mustParse(t, catalogXML)
	prods := Select(doc.Root(), "*/Product")
	if got := prods[0].Path(); got != "/Category/Discount/Product" {
		t.Errorf("Path = %q", got)
	}
	twins := mustParse(t, `<a><b/><b/></a>`)
	second := twins.Root().Children[1]
	if got := second.Path(); got != "/a/b[2]" {
		t.Errorf("Path with twins = %q", got)
	}
	if got := doc.Path(); got != "/" {
		t.Errorf("document Path = %q", got)
	}
	if got := (*Node)(nil).Path(); got != "" {
		t.Errorf("nil Path = %q", got)
	}
	mixed, err := ParseWithOptions(strings.NewReader(`<a>x<!--c--><b/>y<?p q?><!--d--></a>`),
		ParseOptions{KeepComments: true, KeepProcInsts: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a/text()[1]", "/a/comment()[1]", "/a/b", "/a/text()[2]", "/a/processing-instruction()", "/a/comment()[2]"}
	for i, c := range mixed.Root().Children {
		if got := c.Path(); got != want[i] {
			t.Errorf("child %d Path = %q, want %q", i, got, want[i])
		}
	}
	// Deeper than the ancestor stack Path starts with, detached at the
	// top: no leading document, twelve siblings at the leaf.
	top := NewElement("n0")
	cur := top
	for i := 1; i < 40; i++ {
		next := NewElement(fmt.Sprintf("n%d", i))
		cur.Append(next)
		cur = next
	}
	for i := 0; i < 12; i++ {
		cur.Append(NewElement("leaf"))
	}
	got := cur.Children[11].Path()
	if !strings.HasPrefix(got, "/n0/n1/n2/") || !strings.HasSuffix(got, "/n38/n39/leaf[12]") || strings.Count(got, "/") != 41 {
		t.Errorf("deep Path = %q", got)
	}
}

func TestFindByXID(t *testing.T) {
	doc := mustParse(t, `<a><b/><c/></a>`)
	nodes := Postorder(doc)
	for i, n := range nodes {
		n.XID = int64(i + 1)
	}
	for i, n := range nodes {
		if got := FindByXID(doc, int64(i+1)); got != n {
			t.Errorf("FindByXID(%d) = %v, want %v", i+1, got, n)
		}
	}
	if got := FindByXID(doc, 99); got != nil {
		t.Errorf("FindByXID(99) = %v, want nil", got)
	}
}

func TestNodeTypeString(t *testing.T) {
	want := map[NodeType]string{
		Document: "document", Element: "element", Text: "text",
		Comment: "comment", ProcInst: "procinst", NodeType(42): "nodetype(42)",
	}
	for ty, s := range want {
		if ty.String() != s {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), s)
		}
	}
}

func TestNamespaceLabels(t *testing.T) {
	doc := mustParse(t, `<a xmlns:p="urn:x"><p:b/></a>`)
	root := doc.Root()
	if len(root.Children) != 1 {
		t.Fatal("expected one child")
	}
	// Names stay in lexical prefix form so serialization round-trips.
	if name := root.Children[0].Name; name != "p:b" {
		t.Errorf("namespaced label = %q, want p:b", name)
	}
	if v, ok := root.Attribute("xmlns:p"); !ok || v != "urn:x" {
		t.Errorf("xmlns declaration lost: %v", root.Attrs)
	}
	// Default namespaces round-trip too.
	doc2 := mustParse(t, `<a xmlns="urn:d"><b/></a>`)
	re, err := ParseString(doc2.String())
	if err != nil {
		t.Fatalf("default-ns round trip: %v", err)
	}
	if !Equal(doc2, re) {
		t.Fatalf("default-ns tree changed: %s", Diagnose(doc2, re))
	}
}

// TestPatherMatchesPath: a Pather renders every node's path exactly as
// Node.Path does, byte for byte, on random trees whose siblings — few,
// or more than a Pather counts rather than ranks — mix elements of a
// few labels with texts, comments and processing instructions, asked in
// document order, in reverse and shuffled.
func TestPatherMatchesPath(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	labels := []string{"a", "b", "item", "pi"}
	var grow func(n *Node, depth int)
	grow = func(n *Node, depth int) {
		k := r.Intn(7)
		if depth < 2 && r.Intn(2) == 0 {
			k = 10 + r.Intn(40) // past rankMin: the Pather ranks these
		}
		for i := 0; i < k; i++ {
			var c *Node
			switch r.Intn(6) {
			case 0:
				c = NewText("t")
			case 1:
				c = &Node{Type: Comment, Value: "c"}
			case 2:
				c = &Node{Type: ProcInst, Name: labels[r.Intn(len(labels))], Value: "v"}
			default:
				c = NewElement(labels[r.Intn(len(labels))])
				if depth < 5 {
					grow(c, depth+1)
				}
			}
			n.Append(c)
		}
	}
	for round := 0; round < 200; round++ {
		doc := NewDocument()
		root := NewElement("root")
		doc.Append(root)
		grow(root, 0)
		nodes := Preorder(doc)
		for _, order := range []string{"document", "reverse", "shuffled"} {
			switch order {
			case "reverse":
				slices.Reverse(nodes)
			case "shuffled":
				r.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			}
			var p Pather
			for _, n := range nodes {
				if got, want := p.Path(n), n.Path(); got != want {
					t.Fatalf("round %d, %s order: Pather says %q, Path %q", round, order, got, want)
				}
			}
		}
	}
}
