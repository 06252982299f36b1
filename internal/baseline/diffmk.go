package baseline

import (
	"strings"

	"xydiff/internal/dom"
	"xydiff/internal/lcs"
)

// DiffMKResult is the output of the DiffMK-style differ: a flat edit
// script over the linearized document, with no tree semantics, no
// moves, and no persistent identification. The paper criticizes this
// approach ("losing the benefit of tree structure of XML"); it is here
// for the comparison experiments.
type DiffMKResult struct {
	edits     []lcs.Edit
	oldTokens []string
	newTokens []string
}

// DiffMK flattens both documents into token lists (start tags with
// attributes, text, end tags) and diffs the lists, mimicking Sun's
// DiffMK built on the Unix diff algorithm.
func DiffMK(oldDoc, newDoc *dom.Node) *DiffMKResult {
	a, b := flatten(oldDoc), flatten(newDoc)
	return &DiffMKResult{edits: lcs.Myers(a, b), oldTokens: a, newTokens: b}
}

// Changed counts non-Keep edits.
func (r *DiffMKResult) Changed() int {
	n := 0
	for _, e := range r.edits {
		if e.Kind != lcs.Keep {
			n++
		}
	}
	return n
}

// flatten linearizes a document into the token list DiffMK operates on.
func flatten(doc *dom.Node) []string {
	var out []string
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		switch n.Type {
		case dom.Document:
			for _, c := range n.Children {
				walk(c)
			}
		case dom.Element:
			var b strings.Builder
			b.WriteByte('<')
			b.WriteString(n.Name)
			for _, a := range n.Attrs {
				b.WriteByte(' ')
				b.WriteString(a.Name)
				b.WriteString(`="`)
				b.WriteString(a.Value)
				b.WriteByte('"')
			}
			b.WriteByte('>')
			out = append(out, b.String())
			for _, c := range n.Children {
				walk(c)
			}
			out = append(out, "</"+n.Name+">")
		case dom.Text:
			out = append(out, n.Value)
		case dom.Comment:
			out = append(out, "<!--"+n.Value+"-->")
		case dom.ProcInst:
			out = append(out, "<?"+n.Name+" "+n.Value+"?>")
		}
	}
	walk(doc)
	return out
}
