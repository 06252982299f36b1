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

// errOutOfRange reports a child-position argument outside a node's
// children. It wraps the offending position and bounds; match it with
// errors.Is(err, errOutOfRange).
var errOutOfRange = errors.New("dom: position out of range")

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
//	Document: Name empty; Value the raw text of the <!DOCTYPE ...>
//	          directive (without the leading "<!" and trailing ">"),
//	          empty without one; Children are the document items.
//	          The diff feeds the DOCTYPE to package dtd to discover ID
//	          attributes; Equal, Hash64 and the serializer ignore it.
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
// A position outside [0, len(children)] returns errOutOfRange and
// leaves the tree untouched: deltas arrive from untrusted storage and
// the network, so a bad position must surface as an error, not a panic.
func (n *Node) InsertAt(i int, c *Node) error {
	if i < 0 || i > len(n.Children) {
		return fmt.Errorf("%w: InsertAt position %d, children [0,%d]", errOutOfRange, i, len(n.Children))
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
// nodes, its child pointers and its attributes, each in one slab (see
// Slabs). So a node of the copy, kept alone, keeps the whole copy
// reachable.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	s := NewSlabs(n.cloneCounts())
	return s.clone(n)
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

func (s *Slabs) clone(n *Node) *Node {
	cp := s.Copy(n, len(n.Children))
	for i, ch := range n.Children {
		cc := s.clone(ch)
		cc.Parent = cp
		cp.Children[i] = cc
	}
	return cp
}

// Slabs is the storage of trees built many nodes at once — a clone, a
// delta's pruned subtrees: their nodes, child pointers and attributes,
// each one allocation sized by a count made first, which Copy cuts
// nodes from. (The parser, which cannot count first, keeps what is left
// of its chunks in one.) Each node's Children and Attrs have no spare
// capacity: growing one moves it out of the slab, never onto a
// neighbour's part.
type Slabs struct {
	nodes []Node
	kids  []*Node
	attrs []Attr
}

// NewSlabs returns slabs for nodes nodes, kids child pointers and attrs
// attributes.
func NewSlabs(nodes, kids, attrs int) Slabs {
	s := Slabs{nodes: make([]Node, nodes)}
	if kids > 0 {
		s.kids = make([]*Node, kids)
	}
	if attrs > 0 {
		s.attrs = make([]Attr, attrs)
	}
	return s
}

// Copy cuts a node from the slabs with n's type, name, value (a
// Document's DOCTYPE), XID and a copy of its attributes, and room for kids children,
// every one nil until the caller sets it (and its Parent). It panics
// when the slabs are short of what the count promised.
func (s *Slabs) Copy(n *Node, kids int) *Node {
	cp := &s.nodes[0]
	s.nodes = s.nodes[1:]
	*cp = Node{Type: n.Type, Name: n.Name, Value: n.Value, XID: n.XID}
	if k := len(n.Attrs); k > 0 {
		cp.Attrs = s.attrs[:k:k]
		s.attrs = s.attrs[k:]
		copy(cp.Attrs, n.Attrs)
	}
	if kids > 0 {
		cp.Children = s.kids[:kids:kids]
		s.kids = s.kids[kids:]
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
	buf = append(buf, n.label()...)
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
	return appendIndex(buf, same, pos)
}

// label is n's name in a location step.
func (n *Node) label() string {
	switch n.Type {
	case Text:
		return "text()"
	case Comment:
		return "comment()"
	case ProcInst:
		return "processing-instruction()"
	}
	return n.Name
}

// appendIndex appends "[pos]" when a step's label is shared by same > 1
// siblings.
func appendIndex(buf []byte, same, pos int) []byte {
	if same > 1 {
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(pos), 10)
		buf = append(buf, ']')
	}
	return buf
}

// A Pather renders the Paths of many nodes. Node.Path counts a node's
// same-label siblings at every step, which the paths of a delta's ops
// repeat for every op under one wide parent. A Pather ranks the
// children of a parent with more than rankMin of them the first time a
// path steps through one of a label, and reads the ranks from then on,
// so the siblings of each wide parent are counted once per label, not
// once per op. It finds a child among its siblings from where it found
// the last one, which is where paths asked in document order look next.
// Fewer siblings are counted as Node.Path counts them, which costs less
// than ranking them. The trees must not change while a Pather is in
// use. The zero Pather is ready to use.
type Pather struct {
	// parents are the wide parents ranked so far, and index their
	// positions in it once there are more than a few.
	parents []rankedParent
	index   map[*Node]int
	// ranks holds each ranked parent's children's steps, a block per
	// parent, by child index; a zero step is one not ranked yet.
	ranks []stepRank
}

// rankedParent is a wide parent, where its block of ranks starts and
// how long it is, and where the last lookup found its child.
type rankedParent struct {
	node      *Node
	off, n    int
	lastFound int
}

// stepRank is how many siblings share a node's label and its 1-based
// position among them.
type stepRank struct{ same, pos int32 }

// Path returns n.Path().
func (p *Pather) Path(n *Node) string {
	if n == nil {
		return ""
	}
	if n.Type == Document {
		return "/"
	}
	var stack [16]*Node
	chain := stack[:0]
	for cur := n; cur != nil && cur.Type != Document; cur = cur.Parent {
		chain = append(chain, cur)
	}
	var arr [96]byte
	buf := arr[:0]
	for i := len(chain) - 1; i >= 0; i-- {
		c := chain[i]
		buf = append(buf, '/')
		if c.Parent == nil || len(c.Parent.Children) <= rankMin {
			buf = c.appendStep(buf)
			continue
		}
		buf = append(buf, c.label()...)
		r := p.rankOf(c)
		buf = appendIndex(buf, int(r.same), int(r.pos))
	}
	return string(buf)
}

// rankMin is the most children a Pather counts at every step rather
// than ranks: below it, the count is a few comparisons.
const rankMin = 16

// rankOf returns n's step among its siblings.
func (p *Pather) rankOf(n *Node) stepRank {
	kids := n.Parent.Children
	rp := p.parent(n.Parent)
	block := p.ranks[rp.off : rp.off+rp.n]
	for i, j := 0, rp.lastFound; i < len(kids); i, j = i+1, j+1 {
		if j == len(kids) {
			j = 0
		}
		if kids[j] != n {
			continue
		}
		rp.lastFound = j
		if block[j].same == 0 {
			rankLabel(kids, block, n)
		}
		return block[j]
	}
	return stepRank{}
}

// parent returns the ranks of a wide parent, a zeroed block of them the
// first time it is asked for, or when its children have changed in
// number.
func (p *Pather) parent(parent *Node) *rankedParent {
	k := len(parent.Children)
	i, ok := 0, false
	if p.index != nil {
		i, ok = p.index[parent]
	} else {
		for i = range p.parents {
			if ok = p.parents[i].node == parent; ok {
				break
			}
		}
	}
	if ok && p.parents[i].n == k {
		return &p.parents[i]
	}
	if !ok {
		i = len(p.parents)
		p.parents = append(p.parents, rankedParent{node: parent})
	}
	p.parents[i].off, p.parents[i].n, p.parents[i].lastFound = len(p.ranks), k, 0
	p.ranks = append(p.ranks, make([]stepRank, k)...)
	switch {
	case p.index != nil:
		p.index[parent] = i
	case len(p.parents) > 8:
		p.index = make(map[*Node]int, 2*len(p.parents))
		for j, rp := range p.parents {
			p.index[rp.node] = j
		}
	}
	return &p.parents[i]
}

// rankLabel ranks the siblings in kids that share n's label.
func rankLabel(kids []*Node, block []stepRank, n *Node) {
	same := int32(0)
	for i, c := range kids {
		if c.Type == n.Type && c.Name == n.Name {
			same++
			block[i].pos = same
		}
	}
	for i, c := range kids {
		if c.Type == n.Type && c.Name == n.Name {
			block[i].same = same
		}
	}
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
