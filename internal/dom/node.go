// Package dom implements the ordered-tree model for XML documents used
// throughout the library: the simple model of the paper's Section 4,
// where each node has a list of children, element nodes carry a label
// and attributes, and text nodes carry character data.
//
// The package deliberately keeps nodes free of diff bookkeeping
// (weights, signatures, matchings live in the diff package) so that a
// Node is a plain, serializable document fragment.
package dom

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ErrOutOfRange reports a child-position argument outside a node's
// children. It wraps the offending position and bounds; match it with
// errors.Is(err, dom.ErrOutOfRange).
var ErrOutOfRange = errors.New("dom: position out of range")

// NodeType discriminates the kinds of nodes in the tree model.
type NodeType uint8

// Node kinds. Document is a synthetic root that wraps the top-level
// element (and any top-level comments or processing instructions); it
// guarantees that every real node has a parent, which simplifies the
// diff's move/insert bookkeeping.
const (
	Document NodeType = iota
	Element
	Text
	Comment
	ProcInst
)

// String returns the lowercase name of the node type.
func (t NodeType) String() string {
	switch t {
	case Document:
		return "document"
	case Element:
		return "element"
	case Text:
		return "text"
	case Comment:
		return "comment"
	case ProcInst:
		return "procinst"
	default:
		return fmt.Sprintf("nodetype(%d)", uint8(t))
	}
}

// Attr is a single attribute of an element node. Attribute order is
// irrelevant in XML; comparisons in this package are order-insensitive.
type Attr struct {
	Name  string
	Value string
}

// Node is one node of an ordered XML tree.
//
// Meaning of the fields by type:
//
//	Document: Name and Value empty; Children are the document items.
//	Element:  Name is the tag; Attrs the attributes; Value empty.
//	Text:     Value is the character data.
//	Comment:  Value is the comment body.
//	ProcInst: Name is the target, Value the instruction body.
//
// XID is the persistent identifier assigned by the versioning layer
// (zero means "not assigned"). See package xid.
type Node struct {
	Type     NodeType
	Name     string
	Value    string
	Attrs    []Attr
	Children []*Node
	Parent   *Node
	XID      int64

	// Doctype holds the raw text of the <!DOCTYPE ...> directive for
	// Document nodes (without the leading "<!" and trailing ">"). The
	// diff feeds it to package dtd to discover ID attributes.
	Doctype string
}

// NewDocument returns an empty Document node.
func NewDocument() *Node { return &Node{Type: Document} }

// NewElement returns an element node with the given tag.
func NewElement(name string) *Node { return &Node{Type: Element, Name: name} }

// NewText returns a text node with the given character data.
func NewText(value string) *Node { return &Node{Type: Text, Value: value} }

// Root returns the first element child of a document node, or n itself
// when n is not a document. It returns nil for an empty document.
func (n *Node) Root() *Node {
	if n == nil {
		return nil
	}
	if n.Type != Document {
		return n
	}
	for _, c := range n.Children {
		if c.Type == Element {
			return c
		}
	}
	return nil
}

// Append adds children to n, setting their Parent pointers, and
// returns n for chaining.
func (n *Node) Append(children ...*Node) *Node {
	for _, c := range children {
		c.Parent = n
		n.Children = append(n.Children, c)
	}
	return n
}

// InsertAt inserts child c at position i (0-based) among n's children.
// A position outside [0, len(children)] returns ErrOutOfRange and
// leaves the tree untouched: deltas arrive from untrusted storage and
// the network, so a bad position must surface as an error, not a panic.
func (n *Node) InsertAt(i int, c *Node) error {
	if i < 0 || i > len(n.Children) {
		return fmt.Errorf("%w: InsertAt position %d, children [0,%d]", ErrOutOfRange, i, len(n.Children))
	}
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
	c.Parent = n
	return nil
}

// RemoveAt removes and returns the child at position i.
func (n *Node) RemoveAt(i int) *Node {
	c := n.Children[i]
	copy(n.Children[i:], n.Children[i+1:])
	n.Children[len(n.Children)-1] = nil
	n.Children = n.Children[:len(n.Children)-1]
	c.Parent = nil
	return c
}

// Detach removes n from its parent's child list. It is a no-op for a
// node without a parent. It returns the position the node occupied, or
// -1 when it had no parent.
func (n *Node) Detach() int {
	p := n.Parent
	if p == nil {
		return -1
	}
	i := n.Index()
	p.RemoveAt(i)
	return i
}

// Index returns the position of n among its parent's children, or -1
// if n has no parent. The scan is linear; diff internals keep their own
// position arrays instead of calling this in hot loops.
func (n *Node) Index() int {
	if n.Parent == nil {
		return -1
	}
	for i, c := range n.Parent.Children {
		if c == n {
			return i
		}
	}
	return -1
}

// Attribute returns the value of the named attribute and whether it is
// present.
func (n *Node) Attribute(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttribute sets or replaces the named attribute.
func (n *Node) SetAttribute(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// RemoveAttribute deletes the named attribute, reporting whether it was
// present.
func (n *Node) RemoveAttribute(name string) bool {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs = append(n.Attrs[:i], n.Attrs[i+1:]...)
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the subtree rooted at n. The clone's
// Parent is nil; XIDs and a Document's DOCTYPE are copied. One counting
// pass sizes three allocations, whatever the size of the subtree: its
// nodes, its child pointers and its attributes, each in one slab. So a
// node of the copy, kept alone, keeps the whole copy reachable. Each
// node's Children and Attrs have no spare capacity: growing one moves
// it out of the slab, never onto a neighbour's part.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	var c cloner
	nodes, kids, attrs := n.cloneCounts()
	c.nodes = make([]Node, nodes)
	if kids > 0 {
		c.kids = make([]*Node, kids)
	}
	if attrs > 0 {
		c.attrs = make([]Attr, attrs)
	}
	return c.clone(n)
}

// cloneCounts returns the nodes, child pointers and attributes of the
// subtree rooted at n.
func (n *Node) cloneCounts() (nodes, kids, attrs int) {
	nodes, kids, attrs = 1, len(n.Children), len(n.Attrs)
	for _, c := range n.Children {
		a, b, c := c.cloneCounts()
		nodes, kids, attrs = nodes+a, kids+b, attrs+c
	}
	return nodes, kids, attrs
}

// cloner hands out the unused rest of Clone's three slabs.
type cloner struct {
	nodes []Node
	kids  []*Node
	attrs []Attr
}

func (c *cloner) clone(n *Node) *Node {
	cp := &c.nodes[0]
	c.nodes = c.nodes[1:]
	*cp = Node{Type: n.Type, Name: n.Name, Value: n.Value, XID: n.XID, Doctype: n.Doctype}
	if k := len(n.Attrs); k > 0 {
		cp.Attrs = c.attrs[:k:k]
		c.attrs = c.attrs[k:]
		copy(cp.Attrs, n.Attrs)
	}
	if k := len(n.Children); k > 0 {
		cp.Children = c.kids[:k:k]
		c.kids = c.kids[k:]
		for i, ch := range n.Children {
			cc := c.clone(ch)
			cc.Parent = cp
			cp.Children[i] = cc
		}
	}
	return cp
}

// Size returns the number of nodes in the subtree rooted at n,
// including n itself. Attributes are not counted as nodes, matching the
// paper's model where attributes are properties of their element.
func (n *Node) Size() int {
	size := 1
	for _, c := range n.Children {
		size += c.Size()
	}
	return size
}

// TextContent concatenates all text-node values in document order
// below (and including) n.
func (n *Node) TextContent() string {
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	if n.Type == Text {
		b.WriteString(n.Value)
		return
	}
	for _, c := range n.Children {
		c.appendText(b)
	}
}

// Path returns a simple absolute location path for n, of the form
// /Category/Product[2]/Name. Sibling indexes (1-based, counted among
// same-label siblings) are included only when needed to disambiguate.
// Text nodes render as text().
func (n *Node) Path() string {
	if n == nil {
		return ""
	}
	if n.Type == Document {
		return "/"
	}
	// Ancestors first, then one buffer: a path is built per delta
	// operation on the alert path, so it costs one allocation.
	var stack [16]*Node
	chain := stack[:0]
	for cur := n; cur != nil && cur.Type != Document; cur = cur.Parent {
		chain = append(chain, cur)
	}
	var arr [96]byte
	buf := arr[:0]
	for i := len(chain) - 1; i >= 0; i-- {
		buf = append(buf, '/')
		buf = chain[i].appendStep(buf)
	}
	return string(buf)
}

func (n *Node) step() string { return string(n.appendStep(nil)) }

// appendStep appends n's location step: its label, plus a 1-based
// [index] among same-label siblings when there is more than one.
func (n *Node) appendStep(buf []byte) []byte {
	label := n.Name
	switch n.Type {
	case Text:
		label = "text()"
	case Comment:
		label = "comment()"
	case ProcInst:
		label = "processing-instruction()"
	}
	buf = append(buf, label...)
	if n.Parent == nil {
		return buf
	}
	same, pos := 0, 0
	for _, s := range n.Parent.Children {
		if s.Type == n.Type && s.Name == n.Name {
			same++
			if s == n {
				pos = same
			}
		}
	}
	if same > 1 {
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(pos), 10)
		buf = append(buf, ']')
	}
	return buf
}

// SortedAttrs returns the attributes sorted by name. Used by equality,
// canonical serialization and delta construction so attribute order
// never matters. The result may be n.Attrs itself: do not modify it.
func (n *Node) SortedAttrs() []Attr {
	sorted := true
	for i := 1; i < len(n.Attrs); i++ {
		if n.Attrs[i-1].Name > n.Attrs[i].Name {
			sorted = false
			break
		}
	}
	if sorted {
		return n.Attrs
	}
	s := slices.Clone(n.Attrs)
	slices.SortFunc(s, func(a, b Attr) int { return strings.Compare(a.Name, b.Name) })
	return s
}
