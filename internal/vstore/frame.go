package vstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"xydiff/internal/dom"
)

// A keyframe holds an evicted tree frozen into one byte slice, so a
// cache miss gets the tree back with one decoding pass over it and a few
// allocations, not an XML parse. The frame is
//
//	frame  = header text shape
//	header = uvarint(len(text)) uvarint(nodes) uvarint(attrs)
//	         uvarint(names) uvarint(len(name))…
//	text   = the name table's strings, then every value, each once,
//	         in the order shape consumes them
//	shape  = one entry per node, in pre-order:
//	         tag [name] [len(Value)] [len(Doctype)]
//	         [attrs (name len(value))…] [children] varint(XID)
//
// where tag is the node type in its low three bits and one bit for each
// optional field the node has; name is an index into the name table and
// every other field a uvarint. A field the tag announces is never empty
// or zero. The tree comes back exactly as it went in: every field,
// attribute order, adjacent and whitespace-only texts, and XIDs.
const (
	tagType     = 0x07
	tagName     = 0x08
	tagValue    = 0x10
	tagDoctype  = 0x20
	tagAttrs    = 0x40
	tagChildren = 0x80
)

// errFrame is what every frame thaw cannot take back reports.
var errFrame = errors.New("vstore: bad keyframe")

// freeze returns doc as a frame, or false for a node type the tag cannot
// carry. Only the frame is allocated: the freezer's buffers are reused.
func freeze(doc *dom.Node) ([]byte, bool) {
	f := freezers.Get().(*freezer)
	defer f.release()
	if !f.node(doc) {
		return nil, false
	}
	namesLen, lens := 0, 0
	for _, name := range f.table {
		namesLen += len(name)
		lens += uvarintLen(len(name))
	}
	textLen := namesLen + len(f.values)
	header := uvarintLen(textLen) + uvarintLen(f.nodes) + uvarintLen(f.attrs) + uvarintLen(len(f.table)) + lens
	frame := make([]byte, 0, header+textLen+len(f.shape))
	for _, v := range []int{textLen, f.nodes, f.attrs, len(f.table)} {
		frame = binary.AppendUvarint(frame, uint64(v))
	}
	for _, name := range f.table {
		frame = binary.AppendUvarint(frame, uint64(len(name)))
	}
	for _, name := range f.table {
		frame = append(frame, name...)
	}
	frame = append(frame, f.values...)
	return append(frame, f.shape...), true
}

// freezer is freeze's one pre-order pass: the shape and the values
// written so far, and the name table with each name's index.
type freezer struct {
	shape, values []byte
	table         []string
	names         map[string]int
	nodes, attrs  int
}

var freezers = sync.Pool{New: func() any { return &freezer{names: make(map[string]int)} }}

// release empties f, keeping its buffers, and returns it to the pool.
func (f *freezer) release() {
	clear(f.table) // the names belong to the frozen tree
	clear(f.names)
	f.shape, f.values, f.table = f.shape[:0], f.values[:0], f.table[:0]
	f.nodes, f.attrs = 0, 0
	freezers.Put(f)
}

func (f *freezer) node(n *dom.Node) bool {
	if n.Type > dom.ProcInst {
		return false
	}
	at := len(f.shape)
	tag := byte(n.Type)
	f.shape = append(f.shape, 0)
	if n.Name != "" {
		tag |= tagName
		f.name(n.Name)
	}
	if n.Value != "" {
		tag |= tagValue
		f.value(n.Value)
	}
	if n.Doctype != "" {
		tag |= tagDoctype
		f.value(n.Doctype)
	}
	if len(n.Attrs) > 0 {
		tag |= tagAttrs
		f.uvarint(len(n.Attrs))
		for _, a := range n.Attrs {
			f.name(a.Name)
			f.value(a.Value)
		}
		f.attrs += len(n.Attrs)
	}
	if len(n.Children) > 0 {
		tag |= tagChildren
		f.uvarint(len(n.Children))
	}
	f.shape = binary.AppendVarint(f.shape, n.XID)
	f.shape[at] = tag
	f.nodes++
	for _, c := range n.Children {
		if !f.node(c) {
			return false
		}
	}
	return true
}

func (f *freezer) uvarint(v int) { f.shape = binary.AppendUvarint(f.shape, uint64(v)) }

func (f *freezer) value(s string) {
	f.uvarint(len(s))
	f.values = append(f.values, s...)
}

func (f *freezer) name(s string) {
	f.uvarint(f.index(s))
}

// index returns s's index in the name table, adding it if need be.
func (f *freezer) index(s string) int {
	if i, ok := f.names[s]; ok {
		return i
	}
	f.names[s] = len(f.table)
	f.table = append(f.table, s)
	return len(f.table) - 1
}

// uvarintLen is the length of v as a uvarint.
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// thaw rebuilds the tree a frame holds. It checks the whole frame first
// to last — every varint, index, length and count, with nothing left
// over — and returns an error wrapping errFrame, never a partial tree,
// when any of it does not hold. The tree's nodes, child slices and
// attributes are one allocation each, and its strings share one copy of
// the frame's text.
func thaw(frame []byte) (*dom.Node, error) {
	r := frameReader{b: frame}
	textLen := r.uvarint(len(frame))
	nodeCount := r.uvarint(len(frame))
	attrCount := r.uvarint(len(frame))
	nameCount := r.uvarint(len(frame))
	if r.err != nil {
		return nil, r.err
	}
	// Each name length takes a byte at least; so does each node's tag
	// and XID, and each attribute's name and value length.
	if nameCount > len(frame)-r.off {
		r.fail("name count")
		return nil, r.err
	}
	lens := r
	namesLen := 0
	for range nameCount {
		namesLen += r.uvarint(textLen - namesLen)
	}
	if r.err != nil {
		return nil, r.err
	}
	if textLen > len(frame)-r.off {
		r.fail("text length")
		return nil, r.err
	}
	text := string(frame[r.off : r.off+textLen])
	r.off += textLen
	shape := len(frame) - r.off
	if nodeCount == 0 || nodeCount > shape/2 || attrCount > shape/2 {
		r.fail("node or attribute count")
		return nil, r.err
	}
	names := make([]string, nameCount)
	for i := range names {
		n := lens.uvarint(len(text)) // read and checked above
		names[i], text = text[:n], text[n:]
	}
	t := thawer{frameReader: r, names: names, text: text}
	doc := t.tree(nodeCount, attrCount)
	if t.err == nil && t.off != len(frame) {
		t.fail("trailing bytes")
	}
	if t.err != nil {
		return nil, t.err
	}
	return doc, nil
}

// thawer is thaw's one pass over the shape, taking names from the table
// and values off the front of the text.
type thawer struct {
	frameReader
	names []string
	text  string
}

// thawSlot is a node whose children are still being read, and how many
// of them have been.
type thawSlot struct {
	n    *dom.Node
	next int
}

// tree reads the shape's nodes. It returns nil when the frame is bad.
func (t *thawer) tree(nodeCount, attrCount int) *dom.Node {
	nodes := make([]dom.Node, nodeCount)
	kids := make([]*dom.Node, nodeCount-1)
	attrs := make([]dom.Attr, attrCount)
	stack := make([]thawSlot, 0, 16)
	for i := range nodes {
		n := &nodes[i]
		if i > 0 {
			if len(stack) == 0 {
				t.fail("a node after the root's subtree")
				return nil
			}
			top := &stack[len(stack)-1]
			top.n.Children[top.next] = n
			n.Parent = top.n
			if top.next++; top.next == len(top.n.Children) {
				stack = stack[:len(stack)-1]
			}
		}
		tag := t.tag()
		if n.Type = dom.NodeType(tag & tagType); n.Type > dom.ProcInst {
			t.fail("node type")
		}
		if tag&tagName != 0 {
			n.Name = t.name()
		}
		if tag&tagValue != 0 {
			n.Value = t.value(1)
		}
		if tag&tagDoctype != 0 {
			n.Doctype = t.value(1)
		}
		if tag&tagAttrs != 0 {
			k := t.count(len(attrs))
			n.Attrs, attrs = attrs[:k:k], attrs[k:]
			for j := range n.Attrs {
				n.Attrs[j] = dom.Attr{Name: t.name(), Value: t.value(0)}
			}
		}
		if tag&tagChildren != 0 {
			k := t.count(len(kids))
			n.Children, kids = kids[:k:k], kids[k:]
			if k > 0 {
				stack = append(stack, thawSlot{n: n})
			}
		}
		n.XID = t.varint()
		if t.err != nil {
			return nil
		}
	}
	if len(stack) != 0 || len(kids) != 0 || len(attrs) != 0 || t.text != "" {
		t.fail("counts that do not add up")
		return nil
	}
	return &nodes[0]
}

// name reads an index into the name table.
func (t *thawer) name() string {
	i := t.uvarint(len(t.names) - 1)
	if t.err != nil {
		return ""
	}
	return t.names[i]
}

// value reads a length of at least min and takes that many bytes of text.
func (t *thawer) value(min int) string {
	n := t.uvarint(len(t.text))
	if n < min {
		t.fail("empty value")
	}
	if t.err != nil {
		return ""
	}
	s := t.text[:n]
	t.text = t.text[n:]
	return s
}

// count reads a count of at least one and at most max.
func (t *thawer) count(max int) int {
	if k := t.uvarint(max); k > 0 {
		return k
	}
	t.fail("zero or out-of-range count")
	return 0
}

// frameReader reads uvarints off a frame. Its first error sticks: every
// read after it returns zero.
type frameReader struct {
	b   []byte
	off int
	err error
}

// fail records what went wrong, unless an earlier failure is recorded.
func (r *frameReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at byte %d of %d", errFrame, what, r.off, len(r.b))
	}
}

func (r *frameReader) tag() byte {
	if r.err != nil || r.off == len(r.b) {
		r.fail("truncated")
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// uvarint reads a uvarint of at most max; a negative max admits nothing.
func (r *frameReader) uvarint(max int) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || max < 0 || v > uint64(max) {
		r.fail("truncated or out-of-range varint")
		return 0
	}
	r.off += n
	return int(v)
}

func (r *frameReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated XID")
		return 0
	}
	r.off += n
	return v
}
