package dom

import (
	"math/rand"
	"strings"
	"testing"

	"xydiff/internal/alloctest"
)

// escapeReference is the escaper the byte-class tables replaced, one
// switch per byte, kept as FuzzEscapeDifferential's oracle.
func escapeReference(s string, attr bool) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			if attr {
				esc = "&quot;"
			}
		case '\n':
			if attr {
				esc = "&#10;"
			}
		case '\t':
			if attr {
				esc = "&#9;"
			}
		case '\r':
			esc = "&#13;"
		}
		if esc == "" {
			b.WriteByte(s[i])
			continue
		}
		b.WriteString(esc)
	}
	return b.String()
}

// FuzzEscapeDifferential holds the table-driven escaper to the switch
// it replaced, in character data and in attribute values, through each
// of the encoder's sinks: appended, counted, and written through a
// buffer (which a long input overflows).
func FuzzEscapeDifferential(f *testing.F) {
	for _, s := range []string{"", "plain", `a<b>&"c"` + "\t\n\r", "\x00\xff\"'<<&&", strings.Repeat("x&", flushSize)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, attr := range []bool{false, true} {
			ref := &textRef
			if attr {
				ref = &attrRef
			}
			want := escapeReference(s, attr)
			grow := countWriter{grow: true}
			grow.writeEscaped(s, ref)
			if got := string(grow.buf); got != want {
				t.Fatalf("attr %v, appended: %q, want %q", attr, got, want)
			}
			if grow.n != int64(len(want)) {
				t.Fatalf("attr %v, appended count %d, want %d", attr, grow.n, len(want))
			}
			var count countWriter
			count.writeEscaped(s, ref)
			if count.n != int64(len(want)) {
				t.Fatalf("attr %v, counted %d, want %d", attr, count.n, len(want))
			}
			var b strings.Builder
			w := countWriter{w: &b, buf: make([]byte, 0, 16)}
			w.writeEscaped(s, ref)
			w.flush()
			if b.String() != want || w.n != int64(len(want)) {
				t.Fatalf("attr %v, written: %q (%d), want %q", attr, b.String(), w.n, want)
			}
		}
	})
}

// TestCloneAllocations: a copy is three allocations — nodes, child
// pointers, attributes — whatever the size of the tree, at 7 KB and at
// 150 KB.
func TestCloneAllocations(t *testing.T) {
	var docs []*Node
	for _, size := range []int{7000, 150000} {
		doc, err := ParseString(catalogLike(size))
		if err != nil {
			t.Fatal(err)
		}
		if c := doc.Clone(); c.String() != doc.String() || !Equal(c, doc) {
			t.Errorf("the copy of %d bytes differs from the original", size)
		}
		docs = append(docs, doc)
	}
	for _, doc := range docs {
		allocs, _ := alloctest.Cost(t, 10, func() { doc.Clone() })
		t.Logf("%d nodes: %.0f allocations", doc.Size(), allocs)
		if allocs > 3 {
			t.Errorf("cloning %d nodes allocates %.0f times, want at most 3", doc.Size(), allocs)
		}
	}
}

// TestCloneSlabsDoNotOverlap: growing one node's children or
// attributes in a copy moves them out of the shared slab, leaving its
// neighbours untouched.
func TestCloneSlabsDoNotOverlap(t *testing.T) {
	doc := mustParse(t, `<r><a k="1" l="2"><x/><y/></a><b m="3"><z/></b></r>`)
	c := doc.Clone()
	a, b := c.Root().Children[0], c.Root().Children[1]
	a.Append(NewElement("w"))
	a.SetAttribute("n", "4")
	if err := a.InsertAt(0, NewText("t")); err != nil {
		t.Fatal(err)
	}
	if got, want := c.String(), `<r><a k="1" l="2" n="4">t<x/><y/><w/></a><b m="3"><z/></b></r>`; got != want {
		t.Errorf("copy after growing a: %s, want %s", got, want)
	}
	if b.Children[0].Name != "z" || b.Attrs[0] != (Attr{"m", "3"}) {
		t.Errorf("growing a changed its neighbour b: %s", b)
	}
	if got, want := doc.String(), `<r><a k="1" l="2"><x/><y/></a><b m="3"><z/></b></r>`; got != want {
		t.Errorf("original after growing the copy: %s, want %s", got, want)
	}
}

// TestSortedAttrsAllocations: serializing an element whose attributes
// arrived unsorted allocates the sorted copy and nothing else, and the
// output is the canonical order.
func TestSortedAttrsAllocations(t *testing.T) {
	e := NewElement("e")
	for _, n := range []string{"z", "b", "y", "a", "x", "c"} {
		e.SetAttribute(n, n+n)
	}
	buf := e.AppendXML(make([]byte, 0, 256))
	if got, want := string(buf), `<e a="aa" b="bb" c="cc" x="xx" y="yy" z="zz"/>`; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
	allocs, _ := alloctest.Cost(t, 10, func() { buf = e.AppendXML(buf[:0]) })
	if allocs != 1 {
		t.Errorf("serializing unsorted attributes allocates %.0f times, want 1 (the sorted copy)", allocs)
	}
}

// catalogLike is a document of about size bytes of catalog shape:
// products with attributes, names and short texts.
func catalogLike(size int) string {
	r := rand.New(rand.NewSource(int64(size)))
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; b.Len() < size; i++ {
		b.WriteString(`<product id="p`)
		b.WriteString(strings.Repeat("1", 1+r.Intn(4)))
		b.WriteString(`" price="9.99"><name>Product &amp; name</name><desc>some text `)
		b.WriteString(strings.Repeat("ab ", r.Intn(8)))
		b.WriteString("</desc></product>")
	}
	b.WriteString("</catalog>")
	return b.String()
}
