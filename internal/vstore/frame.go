package vstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
)

// A frame is a tree frozen into one byte slice, which gives the tree
// back with one decoding pass over it and a few allocations, not an XML
// parse. It is the one binary tree codec of the store: a keyframe (an
// evicted latest version), a document's version 1 and each stored delta
// with its insert and delete subtrees are held as frames. The frame is
//
//	frame  = header text stream
//	header = uvarint(len(text)) uvarint(nodes) uvarint(attrs)
//	         uvarint(names) uvarint(len(name))…
//	text   = the name table's strings, then every value, each once,
//	         in the order stream consumes them
//	stream = a tree's nodes, or a delta (below)
//	tree   = one entry per node, in pre-order:
//	         tag [name] [len(Value)] [len(Doctype)]
//	         [attrs (name len(value))…] [children] varint(XID)
//
// where tag is the node type in its low three bits and one bit for each
// optional field the node has; name is an index into the name table and
// every other field a uvarint. A field the tag announces is never empty
// or zero. The tree comes back exactly as it went in: every field,
// attribute order, adjacent and whitespace-only texts, and XIDs.
//
// A stored delta's stream is an op table, the delta.Op struct encoded
// field for field, whose insert and delete subtrees are trees of the
// same frame, sharing its name table, text and counts:
//
//	delta  = uvarint(ops) varint(NextXID) op…
//	op     = kind varint(XID) [varint(Parent)] [uvarint(Pos)]
//	         [varint(ToParent)] [uvarint(ToPos)]
//	         [len(Name)] [len(Old)] [len(New)] [tree]
//
// where kind is the op's delta.Kind, every len a uvarint whose bytes are
// the text's, and tree the Subtree. An op holds the fields its kind uses
// (opFields), so the kind says which are there. The subtree carries its
// XIDs, which on the wire are the op's XID map.
const (
	tagType     = 0x07
	tagName     = 0x08
	tagValue    = 0x10
	tagDoctype  = 0x20
	tagAttrs    = 0x40
	tagChildren = 0x80
)

// A frameError is what every frame thaw cannot take back reports: what
// did not hold, and where.
type frameError struct {
	what    string
	at, len int
}

func (e *frameError) Error() string {
	return fmt.Sprintf("vstore: bad frame: %s at byte %d of %d", e.what, e.at, e.len)
}

// freeze returns doc as a frame, or false for a node type the tag cannot
// carry. Only the frame is allocated: the freezer's buffers are reused.
func freeze(doc *dom.Node) ([]byte, bool) {
	f := freezers.Get().(*freezer)
	defer f.release()
	if !f.node(doc) {
		return nil, false
	}
	return f.frame(), true
}

// The fields of an Op each kind uses, bits of opFields.
const (
	fieldParent = 1 << iota
	fieldPos
	fieldToParent
	fieldToPos
	fieldName
	fieldOld
	fieldNew
	fieldSubtree
)

// opFields is which of an Op's fields each kind uses: those a frame
// holds, in the order of the bits.
var opFields = [...]uint8{
	delta.KindInsert:     fieldParent | fieldPos | fieldSubtree,
	delta.KindDelete:     fieldParent | fieldPos | fieldSubtree,
	delta.KindUpdate:     fieldOld | fieldNew,
	delta.KindMove:       fieldParent | fieldPos | fieldToParent | fieldToPos,
	delta.KindInsertAttr: fieldName | fieldNew,
	delta.KindDeleteAttr: fieldName | fieldOld,
	delta.KindUpdateAttr: fieldName | fieldOld | fieldNew,
}

// freezeDelta returns d as a frame, or false when it cannot be one: an
// op kind the frame does not know, a negative position, or a subtree
// that is missing, of a node type the tag cannot carry, or rooted at a
// node without its op's XID. Only the frame is allocated.
func freezeDelta(d *delta.Delta) ([]byte, bool) {
	f := freezers.Get().(*freezer)
	defer f.release()
	f.uvarint(len(d.Ops))
	f.varint(d.NextXID)
	for i := range d.Ops {
		o := &d.Ops[i]
		if int(o.Kind) >= len(opFields) || o.Pos < 0 || o.ToPos < 0 {
			return nil, false
		}
		fields := opFields[o.Kind]
		f.stream = append(f.stream, byte(o.Kind))
		f.varint(o.XID)
		if fields&fieldParent != 0 {
			f.varint(o.Parent)
		}
		if fields&fieldPos != 0 {
			f.uvarint(int(o.Pos))
		}
		if fields&fieldToParent != 0 {
			f.varint(o.ToParent)
		}
		if fields&fieldToPos != 0 {
			f.uvarint(int(o.ToPos))
		}
		if fields&fieldName != 0 {
			f.value(o.Name)
		}
		if fields&fieldOld != 0 {
			f.value(o.Old)
		}
		if fields&fieldNew != 0 {
			f.value(o.New)
		}
		if fields&fieldSubtree != 0 && (o.Subtree == nil || o.Subtree.XID != o.XID || !f.node(o.Subtree)) {
			return nil, false
		}
	}
	return f.frame(), true
}

// freezer is one frame's pass: the stream and the values written so
// far, and the name table with each name's index.
type freezer struct {
	stream, text []byte
	table        []string
	names        map[string]int
	nodes, attrs int
}

var freezers = sync.Pool{New: func() any { return &freezer{names: make(map[string]int)} }}

// release empties f, keeping its buffers, and returns it to the pool.
func (f *freezer) release() {
	clear(f.table) // the names belong to the frozen tree
	clear(f.names)
	f.stream, f.text, f.table = f.stream[:0], f.text[:0], f.table[:0]
	f.nodes, f.attrs = 0, 0
	freezers.Put(f)
}

// frame returns the frame of what f has written, in one allocation of
// its length.
func (f *freezer) frame() []byte {
	namesLen, lens := 0, 0
	for _, name := range f.table {
		namesLen += len(name)
		lens += uvarintLen(len(name))
	}
	textLen := namesLen + len(f.text)
	counts := [...]int{textLen, f.nodes, f.attrs, len(f.table)}
	size := lens + textLen + len(f.stream)
	for _, v := range counts {
		size += uvarintLen(v)
	}
	b := make([]byte, 0, size)
	for _, v := range counts {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, name := range f.table {
		b = binary.AppendUvarint(b, uint64(len(name)))
	}
	for _, name := range f.table {
		b = append(b, name...)
	}
	b = append(b, f.text...)
	return append(b, f.stream...)
}

// node writes the tree rooted at n, or returns false for a node type
// the tag cannot carry.
func (f *freezer) node(n *dom.Node) bool {
	if n.Type > dom.ProcInst {
		return false
	}
	at := len(f.stream)
	tag := byte(n.Type)
	f.stream = append(f.stream, 0)
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
	f.varint(n.XID)
	f.stream[at] = tag
	f.nodes++
	for _, c := range n.Children {
		if !f.node(c) {
			return false
		}
	}
	return true
}

func (f *freezer) uvarint(v int) { f.stream = binary.AppendUvarint(f.stream, uint64(v)) }

func (f *freezer) varint(v int64) { f.stream = binary.AppendVarint(f.stream, v) }

func (f *freezer) value(s string) {
	f.uvarint(len(s))
	f.text = append(f.text, s...)
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
// over — and returns a *frameError, never a partial tree, when any of it
// does not hold. The tree's nodes, child slices and attributes are one
// allocation each, and its strings share one copy of the frame's text.
func thaw(frame []byte) (*dom.Node, error) {
	t := openFrame(frame)
	if t.err == nil && len(t.nodes) == 0 {
		t.fail("no node")
	}
	doc := t.tree()
	if err := t.close(1); err != nil {
		return nil, err
	}
	return doc, nil
}

// thawDelta rebuilds the delta a frame holds, checking all of it as thaw
// does: a *frameError, never a partial delta, when any of it does not
// hold. Its ops are one slab, filled in place; each insert and delete
// gets its subtree with its XIDs on it. The subtrees' nodes, child
// slices and attributes are one allocation each, shared by all of them,
// and every string shares one copy of the frame's text. adjacentTexts
// reports a subtree with two adjacent texts, which the delta's XML
// writes as one, so that XML does not decode to the delta.
func thawDelta(frame []byte) (d *delta.Delta, adjacentTexts bool, err error) {
	t := openFrame(frame)
	// An op takes two bytes at least: its kind and its XID.
	count := t.uvarint((len(frame) - t.off) / 2)
	d = &delta.Delta{NextXID: t.varint(), Ops: make([]delta.Op, count)}
	trees := 0
	for i := range d.Ops {
		o := &d.Ops[i]
		if o.Kind = delta.Kind(t.tag()); int(o.Kind) >= len(opFields) {
			t.fail("op kind")
		}
		if t.err != nil {
			break
		}
		fields := opFields[o.Kind]
		o.XID = t.varint()
		if fields&fieldParent != 0 {
			o.Parent = t.varint()
		}
		if fields&fieldPos != 0 {
			o.Pos = int32(t.uvarint(math.MaxInt32))
		}
		if fields&fieldToParent != 0 {
			o.ToParent = t.varint()
		}
		if fields&fieldToPos != 0 {
			o.ToPos = int32(t.uvarint(math.MaxInt32))
		}
		if fields&fieldName != 0 {
			o.Name = t.value(0)
		}
		if fields&fieldOld != 0 {
			o.Old = t.value(0)
		}
		if fields&fieldNew != 0 {
			o.New = t.value(0)
		}
		if fields&fieldSubtree != 0 {
			o.Subtree = t.tree()
			trees++
			if o.Subtree != nil && o.Subtree.XID != o.XID {
				t.fail("a subtree without its op's XID")
			}
		}
	}
	if err := t.close(trees); err != nil {
		return nil, false, err
	}
	return d, t.adjacentTexts, nil
}

// thawer is one pass over a frame's stream: the name table, the text
// not yet taken, and the slabs the trees' nodes, child slices and
// attributes are cut from.
type thawer struct {
	frameReader
	names []string
	text  string
	nodes []dom.Node
	kids  []*dom.Node
	attrs []dom.Attr
	stack []thawSlot
	// adjacentTexts is set once a text is read right after another.
	adjacentTexts bool
}

// thawSlot is a node whose children are still being read, and how many
// of them have been.
type thawSlot struct {
	n    *dom.Node
	next int
}

// openFrame reads a frame's header and text and sizes the slabs by its
// counts, leaving the thawer at the start of the stream.
func openFrame(frame []byte) *thawer {
	t := &thawer{frameReader: frameReader{b: frame}}
	textLen := t.uvarint(len(frame))
	nodeCount := t.uvarint(len(frame))
	attrCount := t.uvarint(len(frame))
	nameCount := t.uvarint(len(frame))
	// Each name length takes a byte at least; so does each node's tag
	// and XID, and each attribute's name and value length.
	if t.err == nil && nameCount > len(frame)-t.off {
		t.fail("name count")
	}
	lens := t.frameReader
	namesLen := 0
	for range nameCount {
		namesLen += t.uvarint(textLen - namesLen)
	}
	if t.err == nil && textLen > len(frame)-t.off {
		t.fail("text length")
	}
	if t.err != nil {
		return t
	}
	text := string(frame[t.off : t.off+textLen])
	t.off += textLen
	if rest := len(frame) - t.off; nodeCount > rest/2 || attrCount > rest/2 {
		t.fail("node or attribute count")
		return t
	}
	t.names = make([]string, nameCount)
	for i := range t.names {
		n := lens.uvarint(len(text)) // read and checked above
		t.names[i], text = text[:n], text[n:]
	}
	t.text = text
	if nodeCount > 0 {
		t.nodes = make([]dom.Node, nodeCount)
		t.kids = make([]*dom.Node, nodeCount)
		t.stack = make([]thawSlot, 0, 16)
	}
	if attrCount > 0 {
		t.attrs = make([]dom.Attr, attrCount)
	}
	return t
}

// close checks that the stream is read to its end and that the trees,
// roots of them, took every node, child slot, attribute and byte of text
// the counts announced.
func (t *thawer) close(roots int) error {
	if t.err == nil && t.off != len(t.b) {
		t.fail("trailing bytes")
	}
	if t.err == nil && (len(t.nodes) != 0 || len(t.kids) != roots || len(t.attrs) != 0 || t.text != "") {
		t.fail("counts that do not add up")
	}
	return t.err
}

// tree reads one tree, taking its nodes from the slabs. It returns nil
// when the frame is bad.
func (t *thawer) tree() *dom.Node {
	var root *dom.Node
	stack := t.stack[:0]
	for t.err == nil {
		if len(t.nodes) == 0 {
			t.fail("more nodes than counted")
			break
		}
		n := &t.nodes[0]
		t.nodes = t.nodes[1:]
		afterText := false
		if root == nil {
			root = n
		} else {
			top := &stack[len(stack)-1]
			afterText = top.next > 0 && top.n.Children[top.next-1].Type == dom.Text
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
		if afterText && n.Type == dom.Text {
			t.adjacentTexts = true
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
			k := t.count(len(t.attrs))
			n.Attrs, t.attrs = t.attrs[:k:k], t.attrs[k:]
			for j := range n.Attrs {
				n.Attrs[j] = dom.Attr{Name: t.name(), Value: t.value(0)}
			}
		}
		if tag&tagChildren != 0 {
			k := t.count(len(t.kids))
			n.Children, t.kids = t.kids[:k:k], t.kids[k:]
			if k > 0 {
				stack = append(stack, thawSlot{n: n})
			}
		}
		n.XID = t.varint()
		if len(stack) == 0 {
			break
		}
	}
	t.stack = stack
	if t.err != nil {
		return nil
	}
	return root
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
		r.err = &frameError{what: what, at: r.off, len: len(r.b)}
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
		r.fail("truncated varint")
		return 0
	}
	r.off += n
	return v
}
